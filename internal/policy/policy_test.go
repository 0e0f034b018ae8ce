package policy

import (
	"testing"
	"time"
)

func TestValidate(t *testing.T) {
	if err := (Policy{Rho: 30 * time.Second, K: 2}).Validate(); err != nil {
		t.Errorf("valid policy rejected: %v", err)
	}
	if err := (Policy{Rho: -time.Second, K: 2}).Validate(); err == nil {
		t.Errorf("negative rho accepted")
	}
	if err := (Policy{Rho: time.Second, K: 0}).Validate(); err == nil {
		t.Errorf("K=0 accepted")
	}
}

func TestRhoFrames(t *testing.T) {
	p := Policy{Rho: 30 * time.Second, K: 1}
	if got := p.RhoFrames(10); got != 300 {
		t.Errorf("RhoFrames=%d, want 300", got)
	}
	// Rounds up.
	p2 := Policy{Rho: 1500 * time.Millisecond, K: 1}
	if got := p2.RhoFrames(1); got != 2 {
		t.Errorf("RhoFrames(1.5s@1fps)=%d, want 2 (ceil)", got)
	}
	if got := (Policy{Rho: 0, K: 1}).RhoFrames(30); got != 0 {
		t.Errorf("RhoFrames(0)=%d", got)
	}
}

func TestMaxChunks(t *testing.T) {
	// Eq 6.1: max_chunks = 1 + ceil(rho/c).
	cases := []struct {
		rhoSec   int
		chunkSec int
		fps      int
		want     int64
	}{
		{30, 5, 10, 7},  // 1 + ceil(30/5) = 7
		{30, 7, 10, 6},  // rho=300f, c=70f -> 1+ceil(300/70)=1+5=6
		{0, 5, 10, 0},   // zero-rho events are visible in no chunk at all
		{5, 5, 10, 2},   // exactly one chunk length -> 2
		{5, 600, 10, 2}, // chunk far larger than rho -> 2
	}
	for _, c := range cases {
		p := Policy{Rho: time.Duration(c.rhoSec) * time.Second, K: 1}
		chunkFrames := int64(c.chunkSec * c.fps)
		if got := p.MaxChunksStrided(10, chunkFrames, 0); got != c.want {
			t.Errorf("MaxChunksStrided(rho=%ds, c=%ds, stride 0)=%d, want %d", c.rhoSec, c.chunkSec, got, c.want)
		}
	}
	if got := (Policy{Rho: time.Second, K: 1}).MaxChunksStrided(10, 0, 0); got != 0 {
		t.Errorf("MaxChunksStrided with zero chunk=%d", got)
	}
}
