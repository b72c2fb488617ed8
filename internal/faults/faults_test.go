package faults

import (
	"errors"
	"testing"
)

func TestDisarmedIsNil(t *testing.T) {
	t.Cleanup(Reset)
	if err := Do("never.armed"); err != nil {
		t.Fatalf("disarmed failpoint returned %v", err)
	}
}

func TestArmedCountsDownAndDisarms(t *testing.T) {
	t.Cleanup(Reset)
	boom := errors.New("boom")
	Arm("x", Action{Err: boom, Remaining: 2})
	for i := 0; i < 2; i++ {
		if err := Do("x"); !errors.Is(err, boom) {
			t.Fatalf("hit %d: got %v, want boom", i, err)
		}
	}
	if err := Do("x"); err != nil {
		t.Fatalf("exhausted failpoint still fires: %v", err)
	}
	if armed.Load() != 0 {
		t.Fatalf("armed count %d after self-disarm, want 0", armed.Load())
	}
}

func TestUnlimitedAndDisarm(t *testing.T) {
	t.Cleanup(Reset)
	boom := errors.New("boom")
	Arm("y", Action{Err: boom})
	for i := 0; i < 5; i++ {
		if err := Do("y"); !errors.Is(err, boom) {
			t.Fatalf("unlimited failpoint stopped firing at hit %d: %v", i, err)
		}
	}
	Reset()
	if err := Do("y"); err != nil {
		t.Fatalf("disarmed failpoint fired: %v", err)
	}
}

func TestRearmResetsRemaining(t *testing.T) {
	t.Cleanup(Reset)
	boom := errors.New("boom")
	Arm("r", Action{Err: boom, Remaining: 1})
	Arm("r", Action{Err: boom, Remaining: 3})
	n := 0
	for i := 0; i < 5; i++ {
		if Do("r") != nil {
			n++
		}
	}
	if n != 3 {
		t.Fatalf("re-armed failpoint fired %d times, want 3", n)
	}
}
