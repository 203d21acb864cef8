// Package parallel stands in for a kernel package (ctxpoll matches kernel
// packages by import path base) whose function has a Ctx-suffixed
// cancellable sibling: the subject of the call-site case in package b.
package parallel

import "context"

// Run drains [0, n) without a cancellation handle.
func Run(n int, fn func(i int) error) error {
	return RunCtx(context.Background(), n, fn)
}

// RunCtx is Run polling ctx at every step: the sanctioned spelling.
func RunCtx(ctx context.Context, n int, fn func(i int) error) error {
	for i := 0; i < n; i++ {
		if err := ctx.Err(); err != nil {
			return err
		}
		if err := fn(i); err != nil {
			return err
		}
	}
	return nil
}
