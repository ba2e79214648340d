package mpi

import (
	"fmt"
	"math"
	"sync/atomic"
	"testing"
	"time"

	"progresscap/internal/stats"
)

func TestRunRankAndSize(t *testing.T) {
	var seen [8]int32
	err := Run(8, func(c *Comm) error {
		if c.Size() != 8 {
			return fmt.Errorf("size = %d", c.Size())
		}
		atomic.AddInt32(&seen[c.Rank()], 1)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for r, n := range seen {
		if n != 1 {
			t.Fatalf("rank %d ran %d times", r, n)
		}
	}
}

func TestRunInvalidSize(t *testing.T) {
	if err := Run(0, func(*Comm) error { return nil }); err == nil {
		t.Fatal("size 0 accepted")
	}
}

func TestRunPropagatesError(t *testing.T) {
	err := Run(4, func(c *Comm) error {
		if c.Rank() == 2 {
			return fmt.Errorf("boom")
		}
		return nil
	})
	if err == nil || err.Error() != "boom" {
		t.Fatalf("err = %v", err)
	}
}

func TestRunRecoversPanic(t *testing.T) {
	err := Run(1, func(c *Comm) error {
		panic("kaboom")
	})
	if err == nil {
		t.Fatal("panic not reported")
	}
}

func TestSendRecv(t *testing.T) {
	err := Run(2, func(c *Comm) error {
		if c.Rank() == 0 {
			c.Send(1, 7, "hello")
			return nil
		}
		data, src, tag := c.Recv(0, 7)
		if data.(string) != "hello" || src != 0 || tag != 7 {
			return fmt.Errorf("got %v from %d tag %d", data, src, tag)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestRecvMatchesTag(t *testing.T) {
	err := Run(2, func(c *Comm) error {
		if c.Rank() == 0 {
			c.Send(1, 1, "first")
			c.Send(1, 2, "second")
			return nil
		}
		// Receive out of order by tag.
		d2, _, _ := c.Recv(0, 2)
		d1, _, _ := c.Recv(0, 1)
		if d2.(string) != "second" || d1.(string) != "first" {
			return fmt.Errorf("tag matching broken: %v, %v", d1, d2)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestRecvWildcards(t *testing.T) {
	err := Run(3, func(c *Comm) error {
		if c.Rank() != 0 {
			c.Send(0, c.Rank()*10, float64(c.Rank()))
			return nil
		}
		got := map[int]bool{}
		for i := 0; i < 2; i++ {
			d, src, tag := c.Recv(AnySource, AnyTag)
			if tag != src*10 || d.(float64) != float64(src) {
				return fmt.Errorf("mismatched envelope: %v/%d/%d", d, src, tag)
			}
			got[src] = true
		}
		if !got[1] || !got[2] {
			return fmt.Errorf("sources seen: %v", got)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestSendOutOfRangePanics(t *testing.T) {
	err := Run(1, func(c *Comm) error {
		c.Send(5, 0, nil)
		return nil
	})
	if err == nil {
		t.Fatal("out-of-range send did not error")
	}
}

func TestBarrierSynchronizes(t *testing.T) {
	const n = 6
	var phase int32
	err := Run(n, func(c *Comm) error {
		if c.Rank() == 0 {
			time.Sleep(20 * time.Millisecond)
			atomic.StoreInt32(&phase, 1)
		}
		c.Barrier()
		if atomic.LoadInt32(&phase) != 1 {
			return fmt.Errorf("rank %d passed barrier before rank 0 finished", c.Rank())
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestBarrierReusable(t *testing.T) {
	var counter int64
	err := Run(4, func(c *Comm) error {
		for i := 0; i < 50; i++ {
			atomic.AddInt64(&counter, 1)
			c.Barrier()
			// After each barrier the counter must be a multiple of 4.
			if v := atomic.LoadInt64(&counter); v%4 != 0 {
				return fmt.Errorf("iteration %d: counter %d not synchronized", i, v)
			}
			c.Barrier()
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestBcast(t *testing.T) {
	err := Run(5, func(c *Comm) error {
		var in interface{}
		if c.Rank() == 2 {
			in = "the value"
		}
		out := c.Bcast(2, in)
		if out.(string) != "the value" {
			return fmt.Errorf("rank %d got %v", c.Rank(), out)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestReduceSum(t *testing.T) {
	err := Run(6, func(c *Comm) error {
		v, ok := c.Reduce(0, float64(c.Rank()+1), Sum)
		if c.Rank() == 0 {
			if !ok || v != 21 {
				return fmt.Errorf("reduce = %v,%v, want 21,true", v, ok)
			}
		} else if ok {
			return fmt.Errorf("non-root got ok")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestAllreduceMaxMin(t *testing.T) {
	err := Run(5, func(c *Comm) error {
		mx := c.Allreduce(float64(c.Rank()), Max)
		if mx != 4 {
			return fmt.Errorf("allreduce max = %v", mx)
		}
		mn := c.Allreduce(float64(c.Rank()), Min)
		if mn != 0 {
			return fmt.Errorf("allreduce min = %v", mn)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestGather(t *testing.T) {
	err := Run(4, func(c *Comm) error {
		out := c.Gather(1, c.Rank()*c.Rank())
		if c.Rank() != 1 {
			if out != nil {
				return fmt.Errorf("non-root gather = %v", out)
			}
			return nil
		}
		for r := 0; r < 4; r++ {
			if out[r].(int) != r*r {
				return fmt.Errorf("gather[%d] = %v", r, out[r])
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestWtimeAdvances(t *testing.T) {
	err := Run(1, func(c *Comm) error {
		t0 := c.Wtime()
		time.Sleep(10 * time.Millisecond)
		if d := c.Wtime() - t0; d < 0.008 {
			return fmt.Errorf("Wtime advanced only %v s", d)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestListing1Shape reproduces the paper's Listing 1 at 1000× speed: both
// the balanced and imbalanced do_work variants must show the same
// "iterations per second" because the slowest rank is on the critical
// path either way. A 1 ms sleep can oversleep by several times on a
// loaded host, so each variant runs five times, alternating, and the
// medians are compared.
func TestListing1Shape(t *testing.T) {
	const (
		ranks = 8
		scale = time.Millisecond // paper's 1 s of work → 1 ms
		iters = 3
	)
	run := func(equal bool) float64 {
		var rate float64
		err := Run(ranks, func(c *Comm) error {
			var total float64
			for i := 0; i < iters; i++ {
				start := c.Wtime()
				d := scale
				if !equal {
					d = time.Duration(float64(c.Rank()+1) / float64(ranks) * float64(scale))
				}
				time.Sleep(d)
				c.Barrier()
				total += c.Wtime() - start
			}
			if c.Rank() == 0 {
				rate = float64(iters) / total
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		return rate
	}
	var eqs, uneqs []float64
	for i := 0; i < 5; i++ {
		eqs = append(eqs, run(true))
		uneqs = append(uneqs, run(false))
	}
	eq, uneq := stats.Percentile(eqs, 50), stats.Percentile(uneqs, 50)
	if math.Abs(eq-uneq)/eq > 0.5 {
		t.Fatalf("iterations/s diverged: equal=%v unequal=%v", eq, uneq)
	}
}

func TestOpApplyUnknownPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("unknown op did not panic")
		}
	}()
	Op(99).apply(1, 2)
}
