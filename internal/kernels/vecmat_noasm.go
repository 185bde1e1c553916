//go:build !amd64 || purego

package kernels

// vecMatAccelerated is false wherever VecMatT has no assembly: the state-count
// table then keeps the generic partials kernels, which the wide family does
// not beat on the portable body.
const vecMatAccelerated = false

//beagle:noalloc
func vecMatTAsm[T Real](acc, mt, v []T) bool { return false }
