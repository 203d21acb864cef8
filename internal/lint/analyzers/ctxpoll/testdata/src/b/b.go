// Package b seeds call-site violations for ctxpoll: callers that pick a
// kernel's non-cancellable spelling when a Cancel/Ctx variant exists.
package b

import (
	"context"

	"parallel" // the stand-in under testdata/src
	"uncertts/internal/distance"
	"uncertts/internal/munich"
	"uncertts/internal/uncertain"
)

func scan(ctx context.Context, q, c []float64, xs, ys uncertain.SampleSeries) error {
	if _, _, err := munich.ProbabilityCutoff(xs, ys, 0.5, 0.1, munich.Options{}); err != nil { // want `call to munich\.ProbabilityCutoff cannot be cancelled; use ProbabilityCutoffCancel`
		return err
	}
	if err := parallel.Run(100, func(i int) error { return nil }); err != nil { // want `call to parallel\.Run cannot be cancelled; use RunCtx`
		return err
	}

	// The cancellable spellings are the sanctioned ones.
	if _, _, err := distance.DTWBandEarlyAbandonScratch(q, c, 4, 1e9, ctx.Done(), nil); err != nil {
		return err
	}
	if err := parallel.RunCtx(ctx, 100, func(i int) error { return nil }); err != nil {
		return err
	}
	// Kernels with no cancellable sibling carry no obligation.
	if _, err := distance.Euclidean(q, c); err != nil {
		return err
	}
	return nil
}

func suppressed(xs, ys uncertain.SampleSeries) (float64, bool, error) {
	//lint:allow ctxpoll init-time call with no request context in scope
	return munich.ProbabilityCutoff(xs, ys, 0.5, 0.1, munich.Options{})
}
