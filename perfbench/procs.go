package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// proc is one child process of the program under test. Its output goes to
// a log file in the run's working directory.
type proc struct {
	name string
	log  string // path of the output log
	cmd  *exec.Cmd
	done chan struct{} // closed once Wait returned
	err  error         // Wait's result, valid after done
}

// procs tracks every child the benchmark started, so that every exit path
// — normal end, error, or a signal — stops them and waits for them.
type procs struct {
	mu  sync.Mutex
	all []*proc
}

func (ps *procs) start(bin, name, logPath string, args ...string) (*proc, error) {
	logf, err := os.Create(logPath)
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(bin, args...)
	cmd.Stdout, cmd.Stderr = logf, logf
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, fmt.Errorf("start %s: %w", name, err)
	}
	p := &proc{name: name, log: logPath, cmd: cmd, done: make(chan struct{})}
	go func() {
		p.err = cmd.Wait()
		logf.Close()
		close(p.done)
	}()
	ps.mu.Lock()
	ps.all = append(ps.all, p)
	ps.mu.Unlock()
	return p, nil
}

// exited reports whether the process has ended.
func (p *proc) exited() bool {
	select {
	case <-p.done:
		return true
	default:
		return false
	}
}

// kill sends SIGKILL and waits for the process to end.
func (p *proc) kill() {
	if !p.exited() {
		_ = p.cmd.Process.Signal(syscall.SIGKILL) // fails only if it already exited
	}
	<-p.done
}

// clockTicks is the kernel's USER_HZ, the unit of /proc/<pid>/stat CPU
// times; it is 100 on every Linux architecture Go supports.
const clockTicks = 100

// cpu reads the user plus system CPU time the live process has used so far.
func (p *proc) cpu() (time.Duration, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", p.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesised command name start at field 3 (state);
	// utime and stime are fields 14 and 15.
	i := strings.LastIndexByte(string(b), ')')
	f := strings.Fields(string(b[i+1:]))
	if i < 0 || len(f) < 13 {
		return 0, fmt.Errorf("unexpected /proc/%d/stat: %q", p.cmd.Process.Pid, b)
	}
	utime, err1 := strconv.ParseInt(f[11], 10, 64)
	stime, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("unexpected /proc/%d/stat: %q", p.cmd.Process.Pid, b)
	}
	return time.Duration(utime+stime) * time.Second / clockTicks, nil
}

// rssKB reads the process's resident set size (VmRSS) in KiB; 0 once it
// has exited.
func (p *proc) rssKB() int64 {
	f, err := os.Open(fmt.Sprintf("/proc/%d/status", p.cmd.Process.Pid))
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmRSS:"); ok {
			kb, err := strconv.ParseInt(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 10, 64)
			if err == nil {
				return kb
			}
		}
	}
	return 0
}

// rssSampleEvery is the resident-set sampling interval under load.
const rssSampleEvery = 250 * time.Millisecond

// sampleRSS samples the summed resident set of ps, in MiB, every
// rssSampleEvery until the returned function is called; that function
// stops the sampler, waits for it, and returns the samples.
func sampleRSS(ps []*proc) func() []float64 {
	stop, done := make(chan struct{}), make(chan struct{})
	var out []float64
	go func() {
		defer close(done)
		t := time.NewTicker(rssSampleEvery)
		defer t.Stop()
		for {
			select {
			case <-stop:
				return
			case <-t.C:
				var kb int64
				for _, p := range ps {
					kb += p.rssKB()
				}
				out = append(out, float64(kb)/1024)
			}
		}
	}()
	return func() []float64 {
		close(stop)
		<-done
		return out
	}
}

// killAll stops every tracked process and waits for each.
func (ps *procs) killAll() {
	ps.mu.Lock()
	all := append([]*proc(nil), ps.all...)
	ps.mu.Unlock()
	for _, p := range all {
		p.kill()
	}
}

// freeAddrs returns n distinct loopback addresses whose ports were free a
// moment ago: all n are held open together, so no two are the same port.
func freeAddrs(n int) ([]string, error) {
	var out []string
	var ls []net.Listener
	defer func() {
		for _, l := range ls {
			l.Close()
		}
	}()
	for i := 0; i < n; i++ {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		ls = append(ls, l)
		out = append(out, l.Addr().String())
	}
	return out, nil
}

// waitReady polls url until it answers 200, one of ps exits, or timeout
// passes. An exited process's log is copied to standard error.
func waitReady(ctx context.Context, url string, ps []*proc, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	client := &http.Client{Timeout: time.Second}
	for {
		resp, err := client.Get(url)
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		for _, p := range ps {
			if p.exited() {
				if b, err := os.ReadFile(p.log); err == nil {
					os.Stderr.Write(b)
				}
				return fmt.Errorf("%s exited before %s was ready: %v", p.name, url, p.err)
			}
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("%s not ready after %v", url, timeout)
		}
		if ctx.Err() != nil {
			return ctx.Err()
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// cliRun is what one short-lived program run cost.
type cliRun struct {
	Wall  time.Duration `json:"wall_ns"` // elapsed time
	CPU   time.Duration `json:"cpu_ns"`  // user plus system CPU time
	RSSKB int64         `json:"rss_kb"`  // peak resident set (ru_maxrss)
}

// measureFlag, as the driver binary's first argument, makes it run the
// program named by the remaining arguments and report what that cost (see
// measureChild).
const measureFlag = "-measure-child"

// runCLI runs a short-lived program to completion. It runs it through a
// fresh copy of the driver binary (measureChild), because Linux starts a
// program's ru_maxrss at the resident set of the process that spawned it:
// until exec, the child runs in its parent's memory. Spawned straight from
// the driver, whose heap holds the workload's inputs and oracle, a small
// program's peak would read as the driver's.
func runCLI(ctx context.Context, bin string, stdout *os.File, args ...string) (cliRun, error) {
	self, err := os.Executable()
	if err != nil {
		return cliRun{}, err
	}
	pr, pw, err := os.Pipe()
	if err != nil {
		return cliRun{}, err
	}
	defer pr.Close()
	cmd := exec.CommandContext(ctx, self, append([]string{measureFlag, bin}, args...)...)
	if stdout != nil {
		cmd.Stdout = stdout
	}
	var stderr strings.Builder
	cmd.Stderr = &stderr
	cmd.ExtraFiles = []*os.File{pw} // the report, on the measurer's fd 3
	// Cancelling kills the measurer and the program together.
	cmd.SysProcAttr = &syscall.SysProcAttr{Setpgid: true}
	cmd.Cancel = func() error { return syscall.Kill(-cmd.Process.Pid, syscall.SIGKILL) }
	if err := cmd.Start(); err != nil {
		pw.Close()
		return cliRun{}, fmt.Errorf("start %s: %w", filepath.Base(bin), err)
	}
	pw.Close()
	var run cliRun
	decErr := json.NewDecoder(pr).Decode(&run)
	if err := cmd.Wait(); err != nil {
		return run, fmt.Errorf("%s %v: %w: %s", filepath.Base(bin), args, err, stderr.String())
	}
	if decErr != nil {
		return run, fmt.Errorf("%s %v: no cost report: %w", filepath.Base(bin), args, decErr)
	}
	return run, nil
}

// measureChild runs args[0] with the remaining arguments, passing standard
// output and error through, writes its cliRun as JSON to file descriptor 3,
// and returns the exit code to leave with: the program's own.
func measureChild(args []string) int {
	if len(args) == 0 {
		fmt.Fprintln(os.Stderr, "perfbench: "+measureFlag+" needs a program to run")
		return 2
	}
	report := os.NewFile(3, "report")
	syscall.CloseOnExec(3)
	cmd := exec.Command(args[0], args[1:]...)
	cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
	t0 := time.Now()
	err := cmd.Run()
	run := cliRun{Wall: time.Since(t0)}
	if cmd.ProcessState == nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	run.CPU = cmd.ProcessState.UserTime() + cmd.ProcessState.SystemTime()
	if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		run.RSSKB = ru.Maxrss
	}
	if err := json.NewEncoder(report).Encode(run); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: report:", err)
		return 1
	}
	return cmd.ProcessState.ExitCode()
}
