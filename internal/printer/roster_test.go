package printer_test

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"math"
	"runtime"
	"testing"

	"nsync/internal/experiment"
	"nsync/internal/gcode"
	"nsync/internal/printer"
)

// goldenSeed is the run seed of every golden trace.
const goldenSeed = 1000

// goldenOptions starts the heaters below the slicer's targets, so the
// program's M190/M109 waits take time and the recording starts well after
// power-on.
func goldenOptions() printer.Options {
	return printer.Options{
		Seed:          goldenSeed,
		TraceRate:     experiment.CI().TraceRate,
		InitialHotend: 200,
		InitialBed:    58,
	}
}

func ciBenign(t testing.TB) *gcode.Program {
	t.Helper()
	benign, _, err := experiment.CI().Programs()
	if err != nil {
		t.Fatal(err)
	}
	return benign
}

func hashFloats(h hash.Hash, name string, v []float64) {
	var b [8]byte
	h.Write([]byte(name))
	binary.LittleEndian.PutUint64(b[:], uint64(len(v)))
	h.Write(b[:])
	for _, x := range v {
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(x))
		h.Write(b[:])
	}
}

// traceDigest hashes the bits of every field of a trace.
func traceDigest(tr *printer.Trace) string {
	h := sha256.New()
	hashFloats(h, "Rate", []float64{tr.Rate})
	for _, f := range []struct {
		name string
		v    []float64
	}{
		{"X", tr.X}, {"Y", tr.Y}, {"Z", tr.Z},
		{"VX", tr.VX}, {"VY", tr.VY}, {"VZ", tr.VZ},
		{"MotorV0", tr.MotorV[0]}, {"MotorV1", tr.MotorV[1]}, {"MotorV2", tr.MotorV[2]},
		{"MotorP0", tr.MotorP[0]}, {"MotorP1", tr.MotorP[1]}, {"MotorP2", tr.MotorP[2]},
		{"E", tr.E}, {"EVel", tr.EVel}, {"Fan", tr.Fan},
		{"Hotend", tr.Hotend}, {"Bed", tr.Bed},
		{"HotendOn", tr.HotendOn}, {"BedOn", tr.BedOn},
		{"LayerStart", tr.LayerStart},
	} {
		hashFloats(h, f.name, f.v)
	}
	layer := make([]float64, len(tr.Layer))
	for i, l := range tr.Layer {
		layer[i] = float64(l)
	}
	hashFloats(h, "Layer", layer)
	for _, ev := range tr.Events {
		hashFloats(h, ev.Kind, []float64{ev.T})
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// TestTraceGolden pins every bit of the CI benign print's trace on both
// printers, before and after the cut at the end of the heat-up preamble.
// The digests were taken before the simulator's storage and planner were
// reworked for speed; there is no update flag, because a moved digest means
// the simulation changed.
func TestTraceGolden(t *testing.T) {
	if runtime.GOARCH != "amd64" { // Go may fuse a multiply and an add elsewhere
		t.Skipf("golden bits are pinned on amd64, this is %s", runtime.GOARCH)
	}
	want := map[string][2]string{ // printer -> {whole run, recording}
		"UM3": {"f03da70295b61925", "3b696ab0ffdc6418"},
		"RM3": {"81855d1a5ae3cfe2", "a26505238883b70a"},
	}
	prog := ciBenign(t)
	for _, prof := range []printer.Profile{printer.UM3(), printer.RM3()} {
		tr, err := printer.Run(prog, prof, goldenOptions())
		if err != nil {
			t.Fatal(err)
		}
		whole := traceDigest(tr)
		recording := tr.Recording()
		if cut := tr.Duration() - recording.Duration(); cut <= 1 {
			t.Fatalf("%s: recording cuts %v s; the golden run needs a heat wait", prof.Name, cut)
		}
		rec := traceDigest(recording)
		if got := [2]string{whole, rec}; got != want[prof.Name] {
			t.Errorf("%s: trace digests %q, want %q", prof.Name, got, want[prof.Name])
		}
	}
}

// traceBytes is the size of a trace's samples.
func traceBytes(tr *printer.Trace) int {
	n := len(tr.X) + len(tr.Y) + len(tr.Z) + len(tr.VX) + len(tr.VY) + len(tr.VZ) +
		len(tr.E) + len(tr.EVel) + len(tr.Fan) + len(tr.Hotend) + len(tr.Bed) +
		len(tr.HotendOn) + len(tr.BedOn) + len(tr.Layer) + len(tr.LayerStart)
	for m := 0; m < 3; m++ {
		n += len(tr.MotorV[m]) + len(tr.MotorP[m])
	}
	return 8 * n
}

// TestRunAllocations bounds the bytes printer.Run allocates by a multiple
// of its trace's bytes, on every program of the CI roster on both printers.
// Fields that grow together, at least doubling, cost 2–4 times the trace;
// fields appended to one sample at a time cost 4.8–6.1 times.
func TestRunAllocations(t *testing.T) {
	if testing.Short() {
		t.Skip("simulates the CI roster's six programs on both printers")
	}
	// maxObjects also bounds RM3, whose prints lie mostly out of the
	// delta's reach: an unreachable sample must not allocate.
	const maxRatio, maxObjects = 4.4, 1000
	benign, malicious, err := experiment.CI().Programs()
	if err != nil {
		t.Fatal(err)
	}
	progs := map[string]*gcode.Program{"Benign": benign}
	for name, p := range malicious {
		progs[name] = p
	}
	for _, prof := range []printer.Profile{printer.UM3(), printer.RM3()} {
		for name, prog := range progs {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			tr, err := printer.Run(prog, prof, goldenOptions())
			runtime.ReadMemStats(&after)
			if err != nil {
				t.Fatal(err)
			}
			ratio := float64(after.TotalAlloc-before.TotalAlloc) / float64(traceBytes(tr))
			objects := after.Mallocs - before.Mallocs
			t.Logf("%s %s: %.2f× the trace's %d bytes, %d objects", prof.Name, name, ratio, traceBytes(tr), objects)
			if ratio > maxRatio {
				t.Errorf("%s %s: Run allocated %.2f× its trace's bytes, want at most %v×", prof.Name, name, ratio, maxRatio)
			}
			if objects > maxObjects {
				t.Errorf("%s %s: Run allocated %d objects, want at most %d", prof.Name, name, objects, maxObjects)
			}
		}
	}
}

// BenchmarkRun simulates the CI benign print on each printer.
func BenchmarkRun(b *testing.B) {
	prog := ciBenign(b)
	for _, prof := range []printer.Profile{printer.UM3(), printer.RM3()} {
		b.Run(prof.Name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := printer.Run(prog, prof, goldenOptions()); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
