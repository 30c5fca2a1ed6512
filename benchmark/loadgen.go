package main

import (
	"runtime"
	"sort"
	"sync"
	"syscall"
	"time"
	"unsafe"
)

// clock is the pacer's view of time; tests inject a virtual one.
type clock interface {
	Now() time.Time
	Sleep(time.Duration)
}

// wallClock sleeps in the kernel. time.Sleep parks on the runtime's poller,
// whose timeout has millisecond granularity: on the reference box it overshoots
// a sub-millisecond sleep by 0.4 ms at the median, which would be most of a
// 0.2 ms request's latency-from-due. nanosleep on a thread with the timer slack
// turned down overshoots by about 35 µs. It is still a plain sleep — nothing
// spins, so the server and the poller keep both cores.
type wallClock struct{}

func (wallClock) Now() time.Time { return time.Now() }

func (wallClock) Sleep(d time.Duration) {
	ts := syscall.NsecToTimespec(int64(d))
	_ = syscall.Nanosleep(&ts, nil) // an early wake (EINTR) only makes the pacer look again
}

// prSetTimerSlack is PR_SET_TIMERSLACK from <linux/prctl.h>.
const prSetTimerSlack = 29

// schedFIFO is SCHED_FIFO from <sched.h>.
const schedFIFO = 1

// pinLane dedicates the calling goroutine's thread to one connection for
// good: locked, timer slack at the minimum (the default 50 µs lets the kernel
// batch the pacer's wake-ups), and scheduled SCHED_FIFO at the lowest
// real-time priority. A lane thread only ever writes a request, blocks in
// read(2) or sleeps, a few microseconds of CPU per operation, so running it
// ahead of the server costs the server nothing measurable — and without it
// the two cores' scheduler, not the server, wrote the tail: a due request
// waited up to a time slice behind server threads before it was even sent
// (gen_lag_p99 ≈ 5 ms against a service p99 under 1 ms). Both calls are best
// effort: where the harness lacks the privilege the lag is simply larger, and
// it is reported either way. The thread also moves to the generator's own CPU
// (see clientCPUs).
func pinLane() {
	runtime.LockOSThread()      // never unlocked: the thread ends with the goroutine, taking its priority along
	_ = pinThread(clientCPUs()) // best effort like the rest: unpinned, the run is noisier, not wrong
	_, _, _ = syscall.Syscall(syscall.SYS_PRCTL, prSetTimerSlack, 1, 0)
	param := struct{ priority int32 }{1}
	_, _, _ = syscall.Syscall(syscall.SYS_SCHED_SETSCHEDULER, 0, schedFIFO, uintptr(unsafe.Pointer(&param)))
}

// sample is one operation's timing as offsets from its window's start. In a
// closed loop due equals sent. free is when the lane could first have sent
// it: its due time, or the previous reply on the same connection if that came
// later — so sent−free is the generator's own lateness, and free−due the
// queueing a slow reply imposed, which belongs to the latency being measured.
type sample struct {
	due, free, sent, done time.Duration
	ok                    bool
}

// lane is one connection's stream of operations. issue performs the next one
// and is timed; settle runs after the reply is stamped, for work that belongs
// to the generator and not to the measured request (decoding a body into a
// follow-up click).
type lane interface {
	issue() bool
	settle()
}

// paced drives l on an absolute schedule: slot i is due at start+offset+
// i·interval, whatever happened to the slots before it. The loop sleeps until a
// slot is due, sends at once when it is already late, and never skips a slot,
// so a stall is charged to every request it delayed (each sample keeps its due
// time). It returns the samples and the largest number of slots that were
// already due, and still unsent, when one was sent.
//
// A plain sleep, not a spin: spinning with runtime.Gosched starves the
// netpoller on two shared cores, and the sleep's overshoot is reported as
// generator lag instead.
func paced(clk clock, start time.Time, offset, interval, window time.Duration, l lane, out []sample) ([]sample, int) {
	backlogMax := 0
	var prevDone time.Duration
	for due := offset; due < window; due += interval {
		now := clk.Now().Sub(start)
		if now < due {
			clk.Sleep(due - now)
			now = clk.Now().Sub(start)
		}
		if late := now - due; late >= interval {
			backlogMax = max(backlogMax, int(late/interval))
		}
		ok := l.issue()
		done := clk.Now().Sub(start)
		out = append(out, sample{due: due, free: max(due, prevDone), sent: now, done: done, ok: ok})
		l.settle() // its time is the generator's own and shows up as the next slot's lag
		prevDone = done
	}
	return out, backlogMax
}

// closedLoop sends l's next operation as soon as the previous one completes,
// until the window is over.
func closedLoop(clk clock, start time.Time, window time.Duration, l lane, out []sample) []sample {
	for {
		now := clk.Now().Sub(start)
		if now >= window {
			return out
		}
		ok := l.issue()
		out = append(out, sample{due: now, free: now, sent: now, done: clk.Now().Sub(start), ok: ok})
		l.settle()
	}
}

// laneRun schedules one lane for one window: rate > 0 is an open loop at that
// many operations per second, rate 0 a closed loop.
type laneRun struct {
	kind opKind
	l    lane
	rate float64
}

type opKind int

const (
	opRecommend opKind = iota
	opAction
	numOpKinds
)

// windowResult is everything one timed window observed, per operation kind.
type windowResult struct {
	dur        time.Duration
	samples    [numOpKinds][]sample
	offered    [numOpKinds]float64 // scheduled ops/s, 0 for closed-loop lanes
	backlogMax int
}

// runWindow runs every lane for dur on its own goroutine — one goroutine per
// connection, never more — and merges the samples by operation kind. Open-loop
// lanes are staggered across one interval so two connections at the same rate
// do not fire in the same instant.
func runWindow(clk clock, dur time.Duration, lanes []laneRun) windowResult {
	res := windowResult{dur: dur}
	type laneOut struct {
		samples []sample
		backlog int
	}
	outs := make([]laneOut, len(lanes))
	start := clk.Now()
	var wg sync.WaitGroup
	for i, lr := range lanes {
		wg.Add(1)
		go func() {
			defer wg.Done()
			pinLane()
			if lr.rate <= 0 {
				outs[i].samples = closedLoop(clk, start, dur, lr.l, nil)
				return
			}
			interval := time.Duration(float64(time.Second) / lr.rate)
			offset := interval * time.Duration(i) / time.Duration(len(lanes))
			buf := make([]sample, 0, int(lr.rate*dur.Seconds())+8)
			outs[i].samples, outs[i].backlog = paced(clk, start, offset, interval, dur, lr.l, buf)
		}()
	}
	wg.Wait()
	for i, lr := range lanes {
		res.samples[lr.kind] = append(res.samples[lr.kind], outs[i].samples...)
		res.offered[lr.kind] += lr.rate
		res.backlogMax = max(res.backlogMax, outs[i].backlog)
	}
	return res
}

// sloLimit is the latency limit, from due time, inside which an operation
// must be answered to count towards its kind's slo_share.
const sloLimit = 5 * time.Millisecond

// kindStats summarises one operation kind over one window.
type kindStats struct {
	sent, ok        int
	achieved        float64 // completed-ok operations per second of window
	latP50, latTail float64 // µs, due → reply, over ok samples
	tailQ           float64 // the quantile latTail is (0.99 unless the window is too short)
	beyondTail      int
	svcP50          float64 // µs, send → reply
	lagP50, lagP99  float64 // µs, send − free: the generator's own lateness
	sloShare        float64
}

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

func summarize(samples []sample, window time.Duration) kindStats {
	st := kindStats{sent: len(samples)}
	if len(samples) == 0 {
		return st
	}
	lat := make([]float64, 0, len(samples))
	svc := make([]float64, 0, len(samples))
	lag := make([]float64, 0, len(samples))
	inSLO := 0
	var last time.Duration
	for _, s := range samples {
		lag = append(lag, us(s.sent-s.free))
		last = max(last, s.sent)
		if !s.ok {
			continue
		}
		st.ok++
		lat = append(lat, us(s.done-s.due))
		svc = append(svc, us(s.done-s.sent))
		if s.done-s.due <= sloLimit {
			inSLO++
		}
	}
	// A never-skipping generator that falls behind sends its last slots after
	// the window's nominal end: rate over the time it took to send them all,
	// never over less than the window. (A slow last reply is not lateness.)
	st.achieved = float64(st.ok) / max(window, last).Seconds()
	st.sloShare = float64(inSLO) / float64(st.sent)
	sort.Float64s(lag)
	st.lagP50, st.lagP99 = percentile(lag, 0.50), percentile(lag, 0.99)
	if st.ok == 0 {
		return st
	}
	sort.Float64s(lat)
	sort.Float64s(svc)
	st.latP50, st.svcP50 = percentile(lat, 0.50), percentile(svc, 0.50)
	st.tailQ = tailQuantile(len(lat), 0.99, 0.98, 0.95, 0.90)
	if st.tailQ > 0 {
		st.latTail = percentile(lat, st.tailQ)
		st.beyondTail = beyond(len(lat), st.tailQ)
	}
	return st
}
