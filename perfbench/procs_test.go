package main

import (
	"context"
	"os"
	"os/exec"
	"testing"
)

// TestMain lets the test binary stand in for the driver binary when runCLI
// re-executes itself to measure a program.
func TestMain(m *testing.M) {
	if len(os.Args) > 1 && os.Args[1] == measureFlag {
		os.Exit(measureChild(os.Args[2:]))
	}
	os.Exit(m.Run())
}

// sink keeps the planted allocation reachable.
var sink []byte

// A program's reported peak resident set is its own, not that of the large
// process that started it.
func TestRunCLIReportsTheProgramsOwnPeak(t *testing.T) {
	bin, err := exec.LookPath("true")
	if err != nil {
		t.Skip("no true(1) on this system")
	}
	const big = 64 << 20
	sink = make([]byte, big)
	for i := range sink {
		sink[i] = 1 // make every page resident
	}
	run, err := runCLI(context.Background(), bin, nil)
	if err != nil {
		t.Fatal(err)
	}
	if run.RSSKB <= 0 || run.RSSKB*1024 >= big/2 {
		t.Fatalf("true(1) reported a peak of %d KiB while its parent holds %d MiB", run.RSSKB, big>>20)
	}
	if run.Wall <= 0 {
		t.Fatalf("wall time %v", run.Wall)
	}
	if _, err := runCLI(context.Background(), bin+"-missing", nil); err == nil {
		t.Fatal("a program that cannot start reported no error")
	}
}
