//go:build go1.23

package sim

import "iter"

// pull starts body as a runtime coroutine. It is the module's one use of
// iter.Pull, kept in a file of its own because the build constraint is what
// lifts this file's language version above the go 1.22 of go.mod.
func pull(body func(yield func(struct{}) bool)) (next func() (struct{}, bool), stop func()) {
	return iter.Pull(iter.Seq[struct{}](body))
}
