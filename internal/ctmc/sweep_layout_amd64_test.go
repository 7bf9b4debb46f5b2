package ctmc

import (
	"os"
	"reflect"
	"regexp"
	"strconv"
	"testing"
	"unsafe"
)

// TestSweepGS4ArgsLayout checks the argument block the assembly kernel
// reads through a pointer, which go vet's asmdecl cannot see: every
// field of sweepGS4Args is loaded exactly once in sweep_amd64.s, by a
// MOVQ off(DI) annotated with the field's name, at the offset
// unsafe.Offsetof reports for it. Reordering or inserting a field
// without updating the loads fails here instead of corrupting a sweep.
func TestSweepGS4ArgsLayout(t *testing.T) {
	var a sweepGS4Args
	offsets := map[string]uintptr{
		"n":       unsafe.Offsetof(a.n),
		"inStart": unsafe.Offsetof(a.inStart),
		"inOff":   unsafe.Offsetof(a.inOff),
		"rate":    unsafe.Offsetof(a.rate),
		"invExit": unsafe.Offsetof(a.invExit),
		"x":       unsafe.Offsetof(a.x),
		"delta":   unsafe.Offsetof(a.delta),
		"sums":    unsafe.Offsetof(a.sums),
		"dead":    unsafe.Offsetof(a.dead),
	}
	if n := reflect.TypeOf(a).NumField(); n != len(offsets) {
		t.Fatalf("sweepGS4Args has %d fields, the layout table %d", n, len(offsets))
	}
	src, err := os.ReadFile("sweep_amd64.s")
	if err != nil {
		t.Fatal(err)
	}
	load := regexp.MustCompile(`(?m)^\s*MOVQ (\d+)\(DI\), \w+\s*// (\w+)$`)
	seen := map[string]bool{}
	for _, m := range load.FindAllStringSubmatch(string(src), -1) {
		off, _ := strconv.Atoi(m[1])
		name := m[2]
		want, ok := offsets[name]
		if !ok {
			t.Errorf("sweep_amd64.s loads %q, which is not a sweepGS4Args field", name)
			continue
		}
		if seen[name] {
			t.Errorf("sweep_amd64.s loads %s twice", name)
		}
		seen[name] = true
		if uintptr(off) != want {
			t.Errorf("sweep_amd64.s loads %s at offset %d, unsafe.Offsetof says %d", name, off, want)
		}
	}
	for name := range offsets {
		if !seen[name] {
			t.Errorf("sweep_amd64.s never loads sweepGS4Args.%s", name)
		}
	}
}
