package hypertree

import (
	"context"
	"errors"
	"math/rand"
	"runtime"
	"sync"
	"testing"
	"time"

	"hypertree/internal/gen"
)

// A context cancelled before or during a WithWorkers(4) execution must
// surface promptly as ctx.Err(): the parallel node-table builder polls the
// context before each node and every leapfrog join polls it as it runs.
func TestWorkersCancellation(t *testing.T) {
	q := gen.Cycle(8)
	db := gen.RandomDatabase(rand.New(rand.NewSource(11)), q, 8000, 40)
	plan, err := Compile(q, WithStrategy(StrategyHypertree), WithWorkers(4))
	if err != nil {
		t.Fatal(err)
	}

	// already-cancelled context: nothing runs
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := plan.Execute(ctx, db); !errors.Is(err, context.Canceled) {
		t.Fatalf("Execute: pre-cancelled context not observed: %v", err)
	}
	if _, err := plan.ExecuteBoolean(ctx, db); !errors.Is(err, context.Canceled) {
		t.Fatalf("ExecuteBoolean: pre-cancelled context not observed: %v", err)
	}

	// cancel while the node tables are being built
	ctx2, cancel2 := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := plan.Execute(ctx2, db)
		done <- err
	}()
	time.Sleep(2 * time.Millisecond)
	start := time.Now()
	cancel2()
	select {
	case err := <-done:
		if err != nil && !errors.Is(err, context.Canceled) {
			t.Fatalf("unexpected error: %v", err)
		}
		if err == nil {
			t.Logf("execution finished before the cancel landed (fast machine)")
		}
		if elapsed := time.Since(start); elapsed > 5*time.Second {
			t.Fatalf("cancellation took %v", elapsed)
		}
	case <-time.After(30 * time.Second):
		t.Fatalf("parallel execution ignored cancellation")
	}
}

// Race-stress for the serving regime: many goroutines run one shared
// WithWorkers(4) plan over one shared database, listing and Boolean
// executions interleaved, a mixer cancels half of them mid-flight, and
// afterwards the goroutine count must return to baseline — a cancelled
// build must join every child goroutine it started, including those queued
// behind the worker semaphore.
func TestWorkersConcurrentCancelNoLeak(t *testing.T) {
	q := gen.Cycle(6)
	db := gen.RandomDatabase(rand.New(rand.NewSource(17)), q, 400, 25)
	plan, err := Compile(q, WithStrategy(StrategyHypertree), WithWorkers(4))
	if err != nil {
		t.Fatal(err)
	}
	want, err := plan.Execute(context.Background(), db)
	if err != nil {
		t.Fatal(err)
	}

	baseline := runtime.NumGoroutine()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 4; i++ {
				ctx, cancel := context.WithCancel(context.Background())
				if (g+i)%2 == 0 {
					// cancel mid-flight, racing the execution
					go func() {
						time.Sleep(time.Duration(i%3) * time.Millisecond)
						cancel()
					}()
				}
				var err error
				var same bool
				if g%2 == 0 {
					got, e := plan.Execute(ctx, db)
					err, same = e, e == nil && got.Equal(want)
				} else {
					holds, e := plan.ExecuteBoolean(ctx, db)
					err, same = e, holds == !want.Empty()
				}
				switch {
				case errors.Is(err, context.Canceled):
					// expected for the cancelled half
				case err != nil:
					t.Errorf("unexpected error: %v", err)
				case !same:
					t.Errorf("goroutine %d run %d: answers differ from the uncancelled run", g, i)
				}
				cancel()
			}
		}(g)
	}
	wg.Wait()
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > baseline && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > baseline {
		t.Fatalf("goroutines leaked: %d alive, baseline %d", n, baseline)
	}
}
