package rpc

import (
	"context"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"pathdump/internal/controller"
	"pathdump/internal/topology"
	"pathdump/internal/types"
)

// TestAlarmClientBoundedAgainstWedgedController: an alarm POST to a
// controller that never answers must return within the client's timeout
// and leave no goroutine parked on the connection — the leak a
// contextless POST would produce.
func TestAlarmClientBoundedAgainstWedgedController(t *testing.T) {
	before := runtime.NumGoroutine()

	release := make(chan struct{})
	wedged := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		// Consume the body so the server can notice the client hanging
		// up; then wedge until the client gives up (or test teardown).
		io.Copy(io.Discard, r.Body)
		select {
		case <-r.Context().Done():
		case <-release:
		}
	}))

	transport := &http.Transport{}
	ac := &AlarmClient{
		URL:     wedged.URL,
		Client:  &http.Client{Transport: transport},
		Timeout: 50 * time.Millisecond,
	}
	start := time.Now()
	ac.RaiseAlarm(types.Alarm{Flow: types.FlowID{SrcIP: 1, DstIP: 2}, Reason: types.ReasonPoorPerf})
	elapsed := time.Since(start)
	if elapsed > time.Second {
		t.Fatalf("RaiseAlarm took %v against a wedged controller, want ~the 50ms timeout", elapsed)
	}

	close(release)
	wedged.Close()
	transport.CloseIdleConnections()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before+2 {
		if time.Now().After(deadline) {
			t.Fatalf("alarm goroutines leaked: %d before, %d after", before, runtime.NumGoroutine())
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestAlarmClientContext: a cancelled caller context aborts the POST
// immediately, and a live one delivers the alarm end to end through
// ControllerServer into the controller's log and handlers.
func TestAlarmClientContext(t *testing.T) {
	topo, _ := topology.FatTree(4)
	ctrl := controller.New(topo, controller.Local{}, nil)
	var handled atomic.Int64
	ctrl.OnAlarm(func(types.Alarm) { handled.Add(1) })
	srv := httptest.NewServer((&ControllerServer{C: ctrl}).Handler())
	defer srv.Close()
	ac := &AlarmClient{URL: srv.URL}

	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	ac.RaiseAlarmContext(cancelled, types.Alarm{Reason: types.ReasonPoorPerf})
	if got := handled.Load(); got != 0 {
		t.Fatalf("cancelled-context alarm was delivered (%d handlers ran)", got)
	}

	ac.RaiseAlarmContext(context.Background(), types.Alarm{Reason: types.ReasonPoorPerf})
	if got := handled.Load(); got != 1 {
		t.Fatalf("handlers ran %d times, want 1", got)
	}
	if got := len(ctrl.Alarms()); got != 1 {
		t.Fatalf("alarm log has %d entries, want 1", got)
	}
}

// TestControllerAlarmContextStopsDispatch: a controller whose alarm
// context is cancelled (daemon shutting down) drops alarms instead of
// dispatching them.
func TestControllerAlarmContextStopsDispatch(t *testing.T) {
	topo, _ := topology.FatTree(4)
	ctrl := controller.New(topo, controller.Local{}, nil)
	var handled atomic.Int64
	ctrl.OnAlarm(func(types.Alarm) { handled.Add(1) })

	ctx, cancel := context.WithCancel(context.Background())
	ctrl.SetAlarmContext(ctx)
	ctrl.RaiseAlarm(types.Alarm{Reason: types.ReasonPoorPerf})
	if handled.Load() != 1 {
		t.Fatal("live alarm context must dispatch")
	}
	cancel()
	ctrl.RaiseAlarm(types.Alarm{Reason: types.ReasonPoorPerf})
	if got := handled.Load(); got != 1 {
		t.Fatalf("cancelled alarm context still dispatched (%d)", got)
	}
	ctrl.SetAlarmContext(nil)
	ctrl.RaiseAlarm(types.Alarm{Reason: types.ReasonPoorPerf})
	if got := handled.Load(); got != 2 {
		t.Fatalf("reset alarm context did not restore dispatch (%d)", got)
	}
}

// TestAlarmClientRaisesShareOneConnection: alarms raised at once from
// many goroutines, as a daemon forwards them, reach the controller over
// one keep-alive connection rather than one per alarm in flight.
func TestAlarmClientRaisesShareOneConnection(t *testing.T) {
	var conns, received atomic.Int64
	srv := httptest.NewUnstartedServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		io.Copy(io.Discard, r.Body)
		time.Sleep(time.Millisecond) // long enough for raises to overlap
		received.Add(1)
	}))
	srv.Config.ConnState = func(_ net.Conn, st http.ConnState) {
		if st == http.StateNew {
			conns.Add(1)
		}
	}
	srv.Start()
	defer srv.Close()
	transport := &http.Transport{MaxIdleConnsPerHost: 64}
	defer transport.CloseIdleConnections()
	ac := &AlarmClient{URL: srv.URL, Client: &http.Client{Transport: transport}}

	const raisers, each = 16, 5
	var wg sync.WaitGroup
	for g := 0; g < raisers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				if err := ac.RaiseAlarmContext(context.Background(), types.Alarm{Flow: types.FlowID{SrcIP: types.IP(g), SrcPort: uint16(i)}, Reason: types.ReasonPoorPerf}); err != nil {
					t.Error(err)
				}
			}
		}(g)
	}
	wg.Wait()
	if got := received.Load(); got != raisers*each {
		t.Fatalf("controller received %d alarms, want %d", got, raisers*each)
	}
	if got := conns.Load(); got != 1 {
		t.Errorf("%d alarms raised at once opened %d connections, want 1", raisers*each, got)
	}
}
