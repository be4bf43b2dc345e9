package vm_test

import (
	"fmt"
	"runtime"
	"testing"

	"softbound/internal/driver"
	"softbound/internal/meta"
	"softbound/internal/vm"
)

// TestSetupAllocBytes bounds what one vm.New costs on a small linked
// module, libc prelude included, under every registered metadata scheme:
// the segments are demand-paged and the hash tables start small, so setup
// allocates well under 1 MB instead of the 64 MB heap, 8 MB stack and a
// worst-case metadata table.
func TestSetupAllocBytes(t *testing.T) {
	cfg := driver.DefaultConfig(driver.ModeFull)
	mod, err := driver.Compile([]driver.Source{{Name: "setup.c", Text: isolationSrc}}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range meta.Schemes() {
		newVM := func() {
			if _, err := vm.New(mod, vm.Config{Mode: vm.CheckFull, Meta: s.New(), Temporal: s.Kind.Temporal()}); err != nil {
				t.Fatal(err)
			}
		}
		newVM() // the first VM decodes the module, which every later VM shares
		const runs = 8
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < runs; i++ {
			newVM()
		}
		runtime.ReadMemStats(&after)
		per := (after.TotalAlloc - before.TotalAlloc) / runs
		t.Logf("%s: %d bytes per vm.New", s.Name, per)
		if per >= 1<<20 {
			t.Errorf("%s: vm.New allocates %d bytes, want under 1 MB", s.Name, per)
		}
	}
}

// TestMemDifferentialOverflowCrossesPage checks that an unchecked heap
// overflow still corrupts the next object when the two lie on different
// pages: paging must not separate objects the allocator placed
// contiguously, since the attack suite depends on that corruption.
func TestMemDifferentialOverflowCrossesPage(t *testing.T) {
	src := fmt.Sprintf(`
int main() {
    long page = %d;
    char *p0 = (char*)malloc(16);
    long rest = page - ((long)p0 + 16) %% page;
    char *a;
    char *b;
    int i;
    if (rest < 32) rest = rest + page;
    a = (char*)malloc(rest);
    b = (char*)malloc(32);
    if ((long)b != (long)a + rest || (long)b %% page != 0) return 1;
    for (i = 0; i < 32; i = i + 1) b[i] = 1;
    for (i = 0; i < rest + 8; i = i + 1) a[i] = 7;
    for (i = 0; i < 8; i = i + 1) if (b[i] != 7) return 2;
    for (i = 8; i < 32; i = i + 1) if (b[i] != 1) return 3;
    return 0;
}
`, vm.PageSize)
	res, err := driver.RunSource(src, driver.DefaultConfig(driver.ModeNone))
	if err != nil {
		t.Fatal(err)
	}
	if res.Err != nil || res.ExitCode != 0 {
		t.Fatalf("unchecked overflow across a page: exit %d, err %v (1: not adjacent, 2: neighbour not corrupted, 3: overran)", res.ExitCode, res.Err)
	}
	full, err := driver.RunSource(src, driver.DefaultConfig(driver.ModeFull))
	if err != nil {
		t.Fatal(err)
	}
	if full.Violation == nil {
		t.Fatalf("checked run: err %v, want a spatial violation", full.Err)
	}
}
