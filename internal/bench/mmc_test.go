package bench

import (
	"math"
	"testing"
)

func TestErlangFormulas(t *testing.T) {
	// Erlang-B at c=2, a=1 is exactly 1/5.
	if b := ErlangB(2, 1); math.Abs(b-0.2) > 1e-12 {
		t.Errorf("ErlangB(2,1) = %v, want 0.2", b)
	}
	// M/M/1 reduction: the delay probability is the utilization.
	for _, rho := range []float64{0.1, 0.5, 0.9} {
		if c := ErlangC(1, rho); math.Abs(c-rho) > 1e-12 {
			t.Errorf("ErlangC(1,%v) = %v, want %v", rho, c, rho)
		}
	}
	// M/M/1 mean wait: W_q = rho/(mu-lambda).
	if w := MMCWait(1, 0.5, 1); math.Abs(w-1) > 1e-12 {
		t.Errorf("MMCWait(1, 0.5, 1) = %v, want 1", w)
	}
	// C(c, a) is a probability and grows with offered load.
	prev := 0.0
	for a := 0.5; a < 32; a += 0.5 {
		c := ErlangC(32, a)
		if c < 0 || c > 1 {
			t.Fatalf("ErlangC(32,%v) = %v outside [0,1]", a, c)
		}
		if c < prev {
			t.Fatalf("ErlangC(32,%v) = %v < ErlangC at lighter load %v", a, c, prev)
		}
		prev = c
	}
	// Instability: offered load at or above c diverges.
	if w := MMCWait(4, 5, 1); !math.IsInf(w, 1) {
		t.Errorf("MMCWait(4, 5, 1) = %v, want +Inf", w)
	}
	if c := ErlangC(4, 4); c != 1 {
		t.Errorf("ErlangC(4,4) = %v, want 1", c)
	}
	// With many servers the knee sits near full utilization: the wait
	// stays negligible until rho approaches 1 (the sharp knee the
	// serving experiment shows).
	if k := MMCKnee(32, 1, 1); k < 0.8 {
		t.Errorf("MMCKnee(32, mu=1, tau=1/mu) = %v, want >= 0.8", k)
	}
}

// TestServingKneeMatchesErlangC is the closed-form sanity check on the
// serving model: the measured open-loop serving knee must land where
// Erlang-C says an M/M/c station with the same c, lambda, and measured
// mean service time saturates. Service in the model is
// near-deterministic, so M/M/c over-predicts the queueing delay
// (M/D/c waits are about half M/M/c) — the sub-knee assertions use the
// analytic value as an upper band and the knee location, which is
// distribution-insensitive for large c, as the tight claim.
func TestServingKneeMatchesErlangC(t *testing.T) {
	if testing.Short() {
		t.Skip("serving runs in -short")
	}
	small := topo{1, 8}
	nominal := small.nominal() // ops/us
	run := func(frac float64) ServeResult {
		return servingConfig(small, servingTemplate(Env{}), frac).run(servingSeed, true)
	}
	sub := run(0.5)  // comfortably below the knee
	near := run(0.8) // approaching it
	over := run(1.2) // past it

	// The station: c parallel servers (threads x worker coroutines),
	// per-server rate from the measured sub-knee mean service time
	// (ns -> ops/us).
	c := small.threads * 4
	if sub.Service.Mean <= 0 {
		t.Fatalf("no service samples at 0.5x load")
	}
	mu := 1000 / float64(sub.Service.Mean)
	svc := float64(sub.Service.Mean) / 1000 // mean service, us

	// The calibrated capacity constant must agree with c*mu — otherwise
	// every load fraction below is mislabeled.
	if cap := float64(c) * mu; cap < 0.75*nominal || cap > 1.25*nominal {
		t.Errorf("c*mu = %.2f ops/us vs calibrated nominal %.2f (want within 25%%)",
			cap, nominal)
	}

	predict := func(r ServeResult) float64 { return MMCWait(c, r.OfferedRate, mu) }
	measured := func(r ServeResult) float64 { return float64(r.Wait.Mean) / 1000 }

	t.Logf("c=%d mu=%.4f/us svc=%.2fus", c, mu, svc)
	for _, p := range []struct {
		frac float64
		r    ServeResult
	}{{0.5, sub}, {0.8, near}, {1.2, over}} {
		t.Logf("load %.1fx: offered %.2f/us wait mean %.3fus (M/M/c predicts %.3fus)",
			p.frac, p.r.OfferedRate, measured(p.r), predict(p.r))
	}

	// Below the knee the measured wait must be bounded by the M/M/c
	// prediction (plus scheduling slack well under a service time):
	// queueing is negligible exactly where Erlang-C says it is.
	slack := 0.2 * svc
	for _, p := range []struct {
		frac float64
		r    ServeResult
	}{{0.5, sub}, {0.8, near}} {
		if w, pr := measured(p.r), predict(p.r); w > pr+slack {
			t.Errorf("load %.1fx: measured wait %.3fus > M/M/c %.3fus + %.3fus slack",
				p.frac, w, pr, slack)
		}
	}

	// The analytic knee — the load fraction where the M/M/c wait
	// reaches one mean service time — sits near full utilization for
	// c=32, and the measured waits must bracket it: still sub-service
	// at 0.8x, beyond it at 1.2x.
	knee := MMCKnee(c, mu, svc)
	if knee < 0.8 || knee > 1.0 {
		t.Errorf("analytic knee at %.2fx capacity, want within [0.8, 1.0]", knee)
	}
	if w := measured(near); w >= svc {
		t.Errorf("measured wait %.3fus at 0.8x already >= one service time %.3fus", w, svc)
	}
	if w := measured(over); w < svc {
		t.Errorf("measured wait %.3fus at 1.2x still < one service time %.3fus", w, svc)
	}
}
