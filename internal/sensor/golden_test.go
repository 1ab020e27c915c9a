package sensor_test

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"runtime"
	"testing"

	"nsync/internal/experiment"
	"nsync/internal/printer"
	"nsync/internal/sensor"
	"nsync/internal/sigproc"
)

const goldenSeed = 1000

// goldenRecording simulates the CI benign print with a heat wait and returns
// the recording that starts when the hotend is ready.
func goldenRecording(t testing.TB, prof printer.Profile) *printer.Trace {
	t.Helper()
	benign, _, err := experiment.CI().Programs()
	if err != nil {
		t.Fatal(err)
	}
	tr, err := printer.Run(benign, prof, printer.Options{
		Seed:          goldenSeed,
		TraceRate:     experiment.CI().TraceRate,
		InitialHotend: 200,
		InitialBed:    58,
	})
	if err != nil {
		t.Fatal(err)
	}
	return tr.Recording()
}

// noiseFree is the CI acquisition chain without noise, gain drift or frame
// drops, where nothing masks the sign of a zero.
func noiseFree() sensor.Config {
	cfg := experiment.CI().Sensor
	cfg.NoiseLevel, cfg.GainSigma, cfg.FrameDropRate = 0, 0, 0
	return cfg
}

func signalDigest(s *sigproc.Signal) string {
	h := sha256.New()
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], math.Float64bits(s.Rate))
	h.Write(b[:])
	for _, lane := range s.Data {
		binary.LittleEndian.PutUint64(b[:], uint64(len(lane)))
		h.Write(b[:])
		for _, x := range lane {
			binary.LittleEndian.PutUint64(b[:], math.Float64bits(x))
			h.Write(b[:])
		}
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// TestAcquireGolden pins every bit of every channel acquired from the CI
// benign recording on both printers, under the CI acquisition chain and
// without noise. The digests were taken before the sensor models were
// reworked for speed; there is no update flag, because a moved digest means
// a signal changed.
func TestAcquireGolden(t *testing.T) {
	if runtime.GOARCH != "amd64" { // Go may fuse a multiply and an add elsewhere
		t.Skipf("golden bits are pinned on amd64, this is %s", runtime.GOARCH)
	}
	want := map[string]map[sensor.Channel]string{
		"UM3/ci": {
			sensor.ACC: "c0ba4def998932c5", sensor.TMP: "ba00562c55802f82", sensor.MAG: "747d66913fbb8c2a",
			sensor.AUD: "4399bd597fde916b", sensor.EPT: "0bdc8c2863064e02", sensor.PWR: "155c7003894052f1",
		},
		"UM3/noise-free": {
			sensor.ACC: "707dd1b4220ba269", sensor.TMP: "f31abc360ae4a0fc", sensor.MAG: "908940a68e0aaa08",
			sensor.AUD: "2f407867577df783", sensor.EPT: "91668858fbe84acd", sensor.PWR: "08001612a78cbc03",
		},
		"RM3/ci": {
			sensor.ACC: "0fae16fdd75d3cef", sensor.TMP: "6c46a242a9d83977", sensor.MAG: "41b4d3c610f52ed9",
			sensor.AUD: "d7c3970bf558b5fa", sensor.EPT: "1749c64d9be6396c", sensor.PWR: "4b23e3f0ff9b5b79",
		},
		"RM3/noise-free": {
			sensor.ACC: "7f9c576a59f070ed", sensor.TMP: "f853f3acf9d70f1d", sensor.MAG: "26dfb9ad0eea05bf",
			sensor.AUD: "6bfabeedc9930742", sensor.EPT: "a0c76a39e21f23c9", sensor.PWR: "eabc40e58a626378",
		},
	}
	for _, prof := range []printer.Profile{printer.UM3(), printer.RM3()} {
		tr := goldenRecording(t, prof)
		for _, c := range []struct {
			name string
			cfg  sensor.Config
		}{{"ci", experiment.CI().Sensor}, {"noise-free", noiseFree()}} {
			key := prof.Name + "/" + c.name
			sigs, err := sensor.AcquireAll(tr, c.cfg, goldenSeed)
			if err != nil {
				t.Fatal(err)
			}
			for _, ch := range sensor.AllChannels {
				if got := signalDigest(sigs[ch]); got != want[key][ch] {
					t.Errorf("%s %v: digest %q, want %q", key, ch, got, want[key][ch])
				}
			}
		}
	}
}

// BenchmarkAcquire acquires each channel of the CI benign recording on UM3
// under the CI acquisition chain.
func BenchmarkAcquire(b *testing.B) {
	tr := goldenRecording(b, printer.UM3())
	cfg := experiment.CI().Sensor
	for _, ch := range sensor.AllChannels {
		b.Run(ch.String(), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := sensor.Acquire(tr, ch, cfg, goldenSeed); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
