//go:build !amd64

package ctmc

// SetAVXForTest is a no-op on architectures without a vectorized sweep
// kernel: the scalar kernel is the only one, so it reports false.
func SetAVXForTest(on bool) bool { return false }

// HaveAVXForTest reports that no vectorized kernel exists here.
func HaveAVXForTest() bool { return false }
