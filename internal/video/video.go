// Package video implements the serverless video-processing workload of §5.1
// (ExCamera [97] and Sprocket [71]): a synthetic video model (frames with
// per-frame encode complexity, grouped into GOPs) and two encode pipelines —
// a serial baseline and a chunk-parallel pipeline that fans chunks out over
// FaaS functions and pays a stitching cost at chunk boundaries. As in
// ExCamera, finer-grained parallelism buys latency at the price of extra
// boundary key-frames (larger output) and stitch work.
package video

import (
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"time"

	"repro/internal/faas"
)

// ErrNoFrames is returned for empty videos.
var ErrNoFrames = errors.New("video: no frames")

// Frame is one synthetic video frame.
type Frame struct {
	// Complexity scales the frame's encode cost (≈ motion/detail).
	Complexity float64
	// KeyFrame marks an intra-coded frame (no dependency on predecessors).
	KeyFrame bool
}

// Video is a synthetic clip.
type Video struct {
	Frames []Frame
	// FPS is used to report real-time ratios.
	FPS int
}

// Synthetic generates a video with a key frame every gop frames and random
// per-frame complexity in [0.5, 1.5), deterministic under seed.
func Synthetic(frames, gop int, seed int64) Video {
	rng := rand.New(rand.NewSource(seed))
	v := Video{Frames: make([]Frame, frames), FPS: 30}
	for i := range v.Frames {
		v.Frames[i] = Frame{
			Complexity: 0.5 + rng.Float64(),
			KeyFrame:   gop > 0 && i%gop == 0,
		}
	}
	return v
}

// CostModel maps frames to encode work and output bytes.
type CostModel struct {
	// PerFrame is the base encode cost of a delta frame at complexity 1.
	PerFrame time.Duration
	// KeyFrameFactor multiplies cost and size for intra-coded frames.
	KeyFrameFactor float64
	// BytesPerFrame is the output size of a delta frame at complexity 1.
	BytesPerFrame int
	// StitchPerBoundary is the cost of rebasing one chunk boundary
	// (ExCamera's inter-chunk state adaptation).
	StitchPerBoundary time.Duration
}

// DefaultCost is a representative software-encoder cost model (~40ms/frame
// at complexity 1: slower than real time for 30fps input, the regime that
// motivates ExCamera's parallelism).
func DefaultCost() CostModel {
	return CostModel{
		PerFrame:          40 * time.Millisecond,
		KeyFrameFactor:    3,
		BytesPerFrame:     30 << 10,
		StitchPerBoundary: 40 * time.Millisecond,
	}
}

func (c CostModel) frameCost(f Frame, forceKey bool) time.Duration {
	d := time.Duration(float64(c.PerFrame) * f.Complexity)
	if f.KeyFrame || forceKey {
		d = time.Duration(float64(d) * c.KeyFrameFactor)
	}
	return d
}

func (c CostModel) frameBytes(f Frame, forceKey bool) int {
	b := int(float64(c.BytesPerFrame) * f.Complexity)
	if f.KeyFrame || forceKey {
		b = int(float64(b) * c.KeyFrameFactor)
	}
	return b
}

// Report describes one encode run.
type Report struct {
	Frames      int
	Chunks      int
	OutputBytes int
	// Wall is the virtual wall-clock latency of the run.
	Wall time.Duration
	// RealTimeRatio is encode latency / clip duration (<1 = faster than
	// real time; ExCamera's goal).
	RealTimeRatio float64
}

// EncodeSerial encodes the whole clip in one function invocation.
func EncodeSerial(p *faas.Platform, v Video, cost CostModel) (Report, error) {
	if len(v.Frames) == 0 {
		return Report{}, ErrNoFrames
	}
	return encodeChunked(p, v, cost, 1)
}

// EncodeParallel splits the clip into chunks encoded by concurrent function
// invocations, then stitches boundaries.
func EncodeParallel(p *faas.Platform, v Video, cost CostModel, chunks int) (Report, error) {
	if len(v.Frames) == 0 {
		return Report{}, ErrNoFrames
	}
	if chunks < 1 {
		chunks = 1
	}
	if chunks > len(v.Frames) {
		chunks = len(v.Frames)
	}
	return encodeChunked(p, v, cost, chunks)
}

func encodeChunked(p *faas.Platform, v Video, cost CostModel, chunks int) (Report, error) {
	clock := p.Clock()
	start := clock.Now()
	const tenant = "video"
	fnName := fmt.Sprintf("encode-%d-%d", len(v.Frames), chunks)

	type chunkResult struct {
		Bytes int `json:"bytes"`
	}
	worker := func(ctx *faas.Ctx, payload []byte) ([]byte, error) {
		var in struct{ Lo, Hi int }
		if err := json.Unmarshal(payload, &in); err != nil {
			return nil, err
		}
		bytes := 0
		var work time.Duration
		for i := in.Lo; i < in.Hi; i++ {
			forceKey := i == in.Lo && in.Lo != 0 // chunk boundary: forced key frame
			work += cost.frameCost(v.Frames[i], forceKey)
			bytes += cost.frameBytes(v.Frames[i], forceKey)
		}
		ctx.Work(work)
		return json.Marshal(chunkResult{Bytes: bytes})
	}
	if err := p.Register(fnName, tenant, worker, faas.Config{
		ColdStart:  50 * time.Millisecond,
		Timeout:    time.Hour,
		MaxRetries: -1,
	}); err != nil {
		return Report{}, err
	}
	defer p.UnregisterFor(tenant, fnName)

	per := (len(v.Frames) + chunks - 1) / chunks
	var payloads [][]byte
	for c := 0; c < chunks; c++ {
		lo := c * per
		hi := lo + per
		if hi > len(v.Frames) {
			hi = len(v.Frames)
		}
		if lo >= hi {
			continue
		}
		payload, _ := json.Marshal(struct{ Lo, Hi int }{lo, hi})
		payloads = append(payloads, payload)
	}
	outs, errs := faas.Drive(p, tenant, fnName, payloads, make([]time.Duration, len(payloads))).Wait()
	if err := errors.Join(errs...); err != nil {
		return Report{}, err
	}
	totalBytes := 0
	for _, res := range outs {
		var out chunkResult
		if json.Unmarshal(res.Output, &out) == nil {
			totalBytes += out.Bytes
		}
	}
	// Stitch pass: one boundary between each adjacent chunk pair.
	clock.Sleep(time.Duration(chunks-1) * cost.StitchPerBoundary)

	wall := clock.Now().Sub(start)
	clipDur := time.Duration(len(v.Frames)) * time.Second / time.Duration(v.FPS)
	r := Report{
		Frames:      len(v.Frames),
		Chunks:      chunks,
		OutputBytes: totalBytes,
		Wall:        wall,
	}
	if clipDur > 0 {
		r.RealTimeRatio = float64(wall) / float64(clipDur)
	}
	return r, nil
}
