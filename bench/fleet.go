package main

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"os"
	"runtime"
	"sync"
	"time"

	"nsync/internal/ingest"
)

// ioTimeout bounds every dial and verdict wait; a healthy run never nears it.
const ioTimeout = 60 * time.Second

// daemon is the ingest server as cmd/nsyncd assembles it with its default
// flags: one Server over a SwapFactory over a SharedPool holding the boot
// model, no Router, queue and timeout defaults, and a journal at the
// default snapshot interval when the workload asks for one.
type daemon struct {
	srv     *ingest.Server
	addr    string
	journal *ingest.Journal
	dir     string
	serve   chan error

	probe    *timedFactory     // traced runs only
	listener *countingListener // traced runs only
}

func startDaemon(fx *fixture, w workload, workDir string, tr *tracer) (*daemon, error) {
	pool := ingest.NewSharedPool(nil)
	if _, err := pool.Register(fx.model); err != nil {
		return nil, err
	}
	d := &daemon{serve: make(chan error, 1)}
	var factory ingest.SinkFactory = ingest.NewSwapFactory(pool)
	if tr != nil {
		d.probe = newTimedFactory(factory, tr)
		factory = d.probe
	}
	if w.journal {
		mode, err := ingest.ParseJournalSyncMode("interval")
		if err != nil {
			return nil, err
		}
		if d.dir, err = os.MkdirTemp(workDir, "journal-"); err != nil {
			return nil, err
		}
		if d.journal, _, err = ingest.OpenJournal(d.dir, ingest.JournalConfig{SyncMode: mode}); err != nil {
			os.RemoveAll(d.dir)
			return nil, err
		}
	}
	srv, err := ingest.NewServer(ingest.Config{Factory: factory, Journal: d.journal})
	if err != nil {
		d.closeJournal()
		return nil, err
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		d.closeJournal()
		return nil, err
	}
	if tr != nil {
		d.listener = &countingListener{Listener: l}
		l = d.listener
	}
	d.srv, d.addr = srv, l.Addr().String()
	go func() { d.serve <- srv.Serve(l) }()
	return d, nil
}

// stop drains the server, waits for Serve to return and removes the
// journal.
func (d *daemon) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), ioTimeout)
	defer cancel()
	err := d.srv.Shutdown(ctx)
	if serr := <-d.serve; err == nil {
		err = serr
	}
	if jerr := d.closeJournal(); err == nil {
		err = jerr
	}
	return err
}

func (d *daemon) closeJournal() error {
	if d.journal == nil {
		return nil
	}
	err := d.journal.Close()
	if rerr := os.RemoveAll(d.dir); err == nil {
		err = rerr
	}
	return err
}

// session is one print streamed over one connection.
type session struct {
	id    string
	print int
	v     *ingest.Verdict
	err   error
	// latency runs from when the last sample was due (open loop) or sent
	// (closed loop) until the verdict arrived.
	latency time.Duration
	// lastCh and lastSeq name the last data frame sent, and lastSent is
	// when SendData returned for it.
	lastCh   int
	lastSeq  uint64
	lastSent time.Time
}

// fleetRun is one timed window of the fleet path.
type fleetRun struct {
	sessions []session
	start    time.Time
	wall     time.Duration
	cpu      time.Duration
	// lagMs is how late the open-loop generator sent each frame.
	lagMs     []float64
	frames    int // data frames sent
	snapshots int // journal snapshots taken
	// Traced runs only.
	probe    *timedFactory
	listener *countingListener
}

// fleetOptions bound one window.
type fleetOptions struct {
	seconds time.Duration
	seed    int64
	workDir string
	// sessionsPerConn, when positive, replaces the time limit with a fixed
	// number of sessions per connection.
	sessionsPerConn int
}

// runFleet serves the workload's sessions from nproc connections for at
// least o.seconds; every session started runs to its verdict.
func runFleet(w workload, fx *fixture, o fleetOptions, tr *tracer) (*fleetRun, error) {
	d, err := startDaemon(fx, w, o.workDir, tr)
	if err != nil {
		return nil, err
	}
	conns := runtime.NumCPU()
	order := rand.New(rand.NewSource(o.seed)).Perm(len(fx.prints))
	var meanPrint float64
	for _, p := range fx.prints {
		meanPrint += p.seconds / float64(len(fx.prints))
	}

	// The window closes only on a round boundary, where every connection
	// has served as many sessions of each test print as the others, so every
	// run judges the same mix of prints whatever the server's speed.
	round := len(order) / gcd(len(order), conns)

	perConn := make([][]session, conns)
	lags := make([][]float64, conns)
	frames := make([]int, conns)
	start := time.Now()
	cpu0 := cpuTime()
	deadline := start.Add(o.seconds)
	var wg sync.WaitGroup
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			g := generator{w: w, fx: fx, addr: d.addr, tr: tr, pace: realPacer}
			// Open-loop connections start staggered so their sessions end
			// at different times.
			next := start
			if w.speedup > 0 {
				next = next.Add(seconds(meanPrint / w.speedup * float64(c) / float64(conns)))
			}
			for j := 0; ; j++ {
				if o.sessionsPerConn > 0 {
					if j >= o.sessionsPerConn {
						break
					}
				} else if j%round == 0 && (w.speedup > 0 && !next.Before(deadline) || w.speedup == 0 && !time.Now().Before(deadline)) {
					break
				}
				idx := order[(j*conns+c)%len(order)]
				s := g.run(fmt.Sprintf("%s-%d-%d", w.name, c, j), idx, next, sendOrder(fx.prints[idx], w, o.seed, idx))
				perConn[c] = append(perConn[c], s)
				if w.speedup > 0 {
					next = next.Add(seconds(fx.prints[idx].seconds / w.speedup))
				}
			}
			lags[c], frames[c] = g.lagMs, g.frames
		}()
	}
	wg.Wait()
	r := &fleetRun{start: start, wall: time.Since(start), cpu: cpuTime() - cpu0}
	if err := d.stop(); err != nil {
		return nil, fmt.Errorf("stop daemon: %w", err)
	}
	for c := range perConn {
		r.sessions = append(r.sessions, perConn[c]...)
		r.lagMs = append(r.lagMs, lags[c]...)
		r.frames += frames[c]
	}
	if d.journal != nil {
		r.snapshots = d.journal.Snapshots()
	}
	r.probe, r.listener = d.probe, d.listener
	return r, nil
}

func gcd(a, b int) int {
	for b != 0 {
		a, b = b, a%b
	}
	return a
}

func seconds(s float64) time.Duration { return time.Duration(s * float64(time.Second)) }

// generator streams sessions over one connection at a time, through the
// public ingest client only.
type generator struct {
	w    workload
	fx   *fixture
	addr string
	tr   *tracer
	pace pacer

	lagMs  []float64
	frames int
}

// run streams print idx as session id. In an open loop, frame i is due at
// start + frame.due/speedup.
func (g *generator) run(id string, idx int, start time.Time, order []int) session {
	p := g.fx.prints[idx]
	s := session{id: id, print: idx}
	log := g.tr.log(id)
	defer log.close()
	root := log.begin("client.session", -1, time.Now())
	defer func() { log.end(root, time.Now()) }()

	t := time.Now()
	cl, err := ingest.Dial(g.addr, ingest.Hello{SessionID: id, Channels: g.fx.specs}, ioTimeout)
	log.add("ingest.dial", root, t, time.Now())
	if err != nil {
		s.err = err
		return s
	}
	defer cl.Close()

	var lastDue time.Time
	for _, i := range order {
		f := p.frames[i]
		if g.w.speedup > 0 {
			due := start.Add(seconds(f.due / g.w.speedup))
			g.lagMs = append(g.lagMs, float64(g.pace.wait(due))/float64(time.Millisecond))
			if due.After(lastDue) {
				lastDue = due
			}
		}
		t := time.Now()
		if err := cl.SendData(f.ch, f.seq, f.values); err != nil {
			s.err = err
			return s
		}
		s.lastSent = time.Now()
		log.add("ingest.send", root, t, s.lastSent)
		s.lastCh, s.lastSeq = f.ch, f.seq
		g.frames++
	}
	from := s.lastSent
	if g.w.speedup > 0 {
		from = lastDue
	}
	t = time.Now()
	for ch, sig := range p.signals {
		if err := cl.SendEOS(ch, uint64(sig.Len())); err != nil {
			s.err = err
			return s
		}
	}
	s.v, s.err = cl.Finish(ioTimeout)
	arrived := time.Now()
	log.add("ingest.finish", root, t, arrived)
	s.latency = arrived.Sub(from)
	return s
}

// sendOrder is the order a session sends print idx's frames in: in order,
// or with the workload's lossless defects — duplicates, then a shuffle
// within windows — as ingest.Replay injects them. The defects are seeded by
// the run's seed and the print, so every session of one print sends the
// same sequence and one oracle replay checks them all.
func sendOrder(p *print, w workload, seed int64, idx int) []int {
	n := len(p.frames)
	out := make([]int, 0, n+n/16)
	rng := rand.New(rand.NewSource(seed*1009 + int64(idx)))
	for i := 0; i < n; i++ {
		out = append(out, i)
		if w.dupProb > 0 && rng.Float64() < w.dupProb {
			out = append(out, i)
		}
	}
	if k := w.shuffleWindow; k > 1 {
		for start := 0; start < len(out); start += k {
			end := min(start+k, len(out))
			rng.Shuffle(end-start, func(i, j int) { out[start+i], out[start+j] = out[start+j], out[start+i] })
		}
	}
	return out
}

// pacer holds an open-loop generator to its schedule.
type pacer struct {
	now   func() time.Time
	sleep func(time.Duration)
}

var realPacer = pacer{now: time.Now, sleep: time.Sleep}

// wait blocks until due and returns how late the caller is then: 0 when
// it was early enough to sleep to the due time exactly, more when the
// sleep overshot or the caller was already behind schedule.
func (p pacer) wait(due time.Time) time.Duration {
	if d := due.Sub(p.now()); d > 0 {
		p.sleep(d)
	}
	return max(0, p.now().Sub(due))
}

// judged is the simulated print time of the sessions that got a verdict.
func (r *fleetRun) judged(fx *fixture) (printSeconds float64, latMs []float64) {
	for _, s := range r.sessions {
		if s.err == nil {
			printSeconds += fx.prints[s.print].seconds
			latMs = append(latMs, float64(s.latency)/float64(time.Millisecond))
		}
	}
	return printSeconds, latMs
}

var errNoSessions = errors.New("no session completed in the window")
