// Package policy defines the (ρ, K) privacy policy of §5: the class of
// events a camera owner protects. An event is (ρ, K)-bounded if it is
// fully contained in at most K video segments of duration at most ρ
// each; (ρ, K, ε)-event-duration privacy protects every such event
// with ε-differential privacy.
package policy

import (
	"fmt"
	"time"

	"privid/internal/vtime"
)

// Policy is a (ρ, K) bound chosen by the video owner.
type Policy struct {
	// Rho is the maximum duration of any single segment of a protected
	// event.
	Rho time.Duration
	// K is the maximum number of segments of a protected event.
	K int
}

// Validate reports whether the policy is well-formed.
func (p Policy) Validate() error {
	if p.Rho < 0 {
		return fmt.Errorf("policy: negative rho %v", p.Rho)
	}
	if p.K < 1 {
		return fmt.Errorf("policy: K must be >= 1, got %d", p.K)
	}
	return nil
}

// RhoFrames returns ρ in frames at the given rate, rounded up
// (the conservative direction for privacy).
func (p Policy) RhoFrames(fps vtime.FrameRate) int64 {
	return fps.FramesCeil(p.Rho)
}

// MaxChunksStrided returns the maximum number of chunks that a single
// event segment of duration ρ can span. Eq. 6.1 gives it for
// contiguous chunks of c frames as 1 + ceil(ρ/c), the worst case being
// a segment first visible in the last frame of a chunk. Generalized to
// strided splits, consecutive chunk starts are period = c + stride
// frames apart, so a segment overlaps at most 1 + ceil(ρ/period)
// chunks. Stride 0 recovers the paper's formula; positive strides
// (sampled chunks) yield fewer reachable chunks, negative strides
// (overlapping chunks) more.
func (p Policy) MaxChunksStrided(fps vtime.FrameRate, chunkFrames, strideFrames int64) int64 {
	if chunkFrames <= 0 {
		return 0
	}
	rho := p.RhoFrames(fps)
	if rho == 0 {
		// A (0, K)-bounded event is visible for zero duration — zero
		// frames — so it can affect no chunk at all. This is the
		// paper's Case 4: masking everything but the traffic light
		// yields ρ=0 and therefore zero noise (100% accuracy).
		return 0
	}
	period := chunkFrames + strideFrames
	if period < 1 {
		period = 1
	}
	ceil := rho / period
	if rho%period != 0 {
		ceil++
	}
	return 1 + ceil
}

// String implements fmt.Stringer.
func (p Policy) String() string {
	return fmt.Sprintf("(rho=%v, K=%d)", p.Rho, p.K)
}
