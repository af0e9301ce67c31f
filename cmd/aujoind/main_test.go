package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"github.com/aujoin/aujoin/internal/cluster"
)

// TestValidateFlags pins the flag-combination contract: impossible or
// ambiguous invocations are refused with an error naming the conflict
// instead of half-working.
func TestValidateFlags(t *testing.T) {
	cases := []struct {
		name    string
		cfg     config
		wantErr string // substring; empty = valid
	}{
		{name: "defaults", cfg: config{addr: ":8321", shards: 1}},
		{name: "negative shards", cfg: config{shards: -1}, wantErr: "-shards"},
		{name: "zero shards is GOMAXPROCS", cfg: config{shards: 0}},
		{name: "catalog with join", cfg: config{join: "http://127.0.0.1:8080", catalog: "c.txt"}, wantErr: "-catalog conflicts with -join"},
		{name: "data-dir with join", cfg: config{join: "http://127.0.0.1:8080", dataDir: "/tmp/d"}, wantErr: "-data-dir conflicts with -join"},
		{name: "join without scheme", cfg: config{join: "127.0.0.1:8080"}, wantErr: "http(s) URL"},
		{name: "worker mode ok", cfg: config{join: "http://127.0.0.1:8080", shards: 2}},
		{name: "checkpoint without data-dir", cfg: config{ckptIvl: time.Minute}, wantErr: "-checkpoint-every requires -data-dir"},
		{name: "checkpoint with data-dir", cfg: config{dataDir: "/tmp/d", ckptIvl: time.Minute}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.cfg.validate()
			if tc.wantErr == "" {
				if err != nil {
					t.Fatalf("validate() = %v, want nil", err)
				}
				return
			}
			if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("validate() = %v, want error containing %q", err, tc.wantErr)
			}
		})
	}
}

// TestAdvertiseURL pins how a worker derives the address the coordinator
// calls back on.
func TestAdvertiseURL(t *testing.T) {
	cases := []struct {
		cfg  config
		want string
	}{
		{config{addr: ":8321"}, "http://127.0.0.1:8321"},
		{config{addr: "10.0.0.7:8321"}, "http://10.0.0.7:8321"},
		{config{addr: ":8321", advertise: "http://worker-3:9000"}, "http://worker-3:9000"},
		{config{addr: ":8321", advertise: "http://worker-3:9000/"}, "http://worker-3:9000"},
	}
	for _, tc := range cases {
		if got := tc.cfg.advertiseURL(); got != tc.want {
			t.Errorf("advertiseURL(%+v) = %q, want %q", tc.cfg, got, tc.want)
		}
	}
}

// registration is what the fake coordinator saw of one /cluster/register
// call: the outcome of its immediate call back to the worker.
type registration struct{ callback error }

// fakeCoordinator answers /cluster/register the way a coordinator that is
// already up does when the last worker arrives: it calls the registering
// worker back at once, without retrying, and reports each registration on
// regs.
func fakeCoordinator(t *testing.T, regs chan<- registration) *httptest.Server {
	t.Helper()
	client := &http.Client{Timeout: 500 * time.Millisecond}
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/cluster/register" {
			http.NotFound(w, r)
			return
		}
		var req cluster.RegisterRequest
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		resp, err := client.Get(req.Addr + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				err = fmt.Errorf("healthz status %d", resp.StatusCode)
			}
		}
		select {
		case regs <- registration{callback: err}:
		default:
		}
		w.WriteHeader(http.StatusOK)
	}))
	t.Cleanup(srv.Close)
	return srv
}

// TestWorkerListensBeforeRegistering pins the cluster bootstrap order: by
// the time a worker's registration reaches the coordinator, the worker's
// listener is bound, so the coordinator's immediate call back succeeds.
func TestWorkerListensBeforeRegistering(t *testing.T) {
	// A free loopback port: the advertised URL is derived from -addr.
	probe, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := probe.Addr().String()
	probe.Close()

	regs := make(chan registration, 1)
	coord := fakeCoordinator(t, regs)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan error, 1)
	go func() {
		done <- run(ctx, flag.NewFlagSet("aujoind", flag.ContinueOnError), []string{"-addr", addr, "-join", coord.URL})
	}()
	select {
	case reg := <-regs:
		if reg.callback != nil {
			t.Fatalf("coordinator could not reach the registering worker: %v", reg.callback)
		}
	case err := <-done:
		t.Fatalf("run returned before registering: %v", err)
	case <-time.After(10 * time.Second):
		t.Fatal("worker never registered")
	}
	cancel()
	if err := <-done; err != nil {
		t.Fatalf("run after shutdown: %v", err)
	}
}

// TestBadAddrFailsBeforeRegistering checks that a worker whose listener
// cannot bind fails at once and never announces itself to the coordinator.
func TestBadAddrFailsBeforeRegistering(t *testing.T) {
	taken, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer taken.Close()
	regs := make(chan registration, 1)
	coord := fakeCoordinator(t, regs)
	err = run(context.Background(), flag.NewFlagSet("aujoind", flag.ContinueOnError),
		[]string{"-addr", taken.Addr().String(), "-join", coord.URL})
	if err == nil {
		t.Fatal("run on an address in use returned nil")
	}
	select {
	case <-regs:
		t.Fatal("worker registered although its listener failed to bind")
	case <-time.After(1500 * time.Millisecond):
	}
}
