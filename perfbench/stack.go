package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"os"
	"sync"
	"time"

	"xseed/internal/obs"
	"xseed/internal/server"
)

// shutdownGrace bounds every listener's drain at teardown.
const shutdownGrace = 5 * time.Second

// stack is one in-process xseedd: the server built by server.New with its
// HTTP handler and an xtp listener, both on loopback ephemeral ports.
type stack struct {
	srv      *server.Server
	om       *obs.Registry
	handler  http.Handler // served by httpSrv; traced requests call it directly
	httpSrv  *http.Server
	xtp      *server.XTP
	httpAddr string
	xtpAddr  string
	storeDir string // removed at close; "" without a store

	stopCompactor context.CancelFunc
	wg            sync.WaitGroup // serve loops and the compactor
	errMu         sync.Mutex
	serveErr      error
}

// startStack builds and starts a server. cfg's Addr, Metrics and Logger are
// set here: loopback, a fresh metrics registry (metrics on, as by default),
// and an access log that is formatted as usual but discarded so it does not
// interleave with the benchmark's output.
func startStack(cfg server.Config) (*stack, error) {
	st := &stack{om: obs.NewRegistry(), storeDir: cfg.StoreDir}
	cfg.Addr = "127.0.0.1:0"
	cfg.Metrics = st.om
	lg := slog.New(slog.NewTextHandler(io.Discard, nil))
	cfg.Logger = lg
	srv, err := server.New(cfg)
	if err != nil {
		st.removeStore()
		return nil, fmt.Errorf("server.New: %w", err)
	}
	st.srv = srv
	hln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close()
		st.removeStore()
		return nil, fmt.Errorf("http listen: %w", err)
	}
	xln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		hln.Close()
		srv.Close()
		st.removeStore()
		return nil, fmt.Errorf("xtp listen: %w", err)
	}
	st.httpAddr, st.xtpAddr = hln.Addr().String(), xln.Addr().String()
	st.handler = srv.Handler()
	st.httpSrv = &http.Server{Handler: st.handler}
	st.xtp = server.NewXTP(srv.Registry(), server.XTPOptions{Logger: lg, Metrics: st.om})
	st.wg.Add(2)
	go func() {
		defer st.wg.Done()
		if err := st.httpSrv.Serve(hln); !errors.Is(err, http.ErrServerClosed) {
			st.fail(fmt.Errorf("http serve: %w", err))
		}
	}()
	go func() {
		defer st.wg.Done()
		if err := st.xtp.Serve(xln); err != nil {
			st.fail(fmt.Errorf("xtp serve: %w", err))
		}
	}()
	// The daemon runs the store's compactor next to its listeners; so does
	// the benchmark, so compaction work shows where a daemon would do it.
	if s := srv.Registry().Store(); s != nil {
		ctx, cancel := context.WithCancel(context.Background())
		st.stopCompactor = cancel
		st.wg.Add(1)
		go func() {
			defer st.wg.Done()
			s.StartCompactor(ctx, 0)
		}()
	}
	return st, nil
}

func (st *stack) fail(err error) {
	st.errMu.Lock()
	if st.serveErr == nil {
		st.serveErr = err
	}
	st.errMu.Unlock()
}

// scrape reads the server's public /metrics exposition.
func (st *stack) scrape(ctx context.Context) (scrape, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, "http://"+st.httpAddr+"/metrics", nil)
	if err != nil {
		return nil, err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return nil, fmt.Errorf("scrape /metrics: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("scrape /metrics: status %d", resp.StatusCode)
	}
	return parseScrape(resp.Body)
}

// close drains both listeners under a deadline, stops the compactor, closes
// the server (flushing the store), waits for every goroutine it started,
// and removes the store directory. It returns the first failure, including
// any serve loop that ended on its own.
func (st *stack) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), shutdownGrace)
	defer cancel()
	var errs []error
	if err := st.httpSrv.Shutdown(ctx); err != nil {
		errs = append(errs, fmt.Errorf("http shutdown: %w", err))
	}
	if err := st.xtp.Shutdown(ctx); err != nil {
		errs = append(errs, fmt.Errorf("xtp shutdown: %w", err))
	}
	if st.stopCompactor != nil {
		st.stopCompactor()
	}
	st.wg.Wait()
	if err := st.srv.Close(); err != nil {
		errs = append(errs, fmt.Errorf("server close: %w", err))
	}
	st.errMu.Lock()
	errs = append(errs, st.serveErr)
	st.errMu.Unlock()
	if err := st.removeStore(); err != nil {
		errs = append(errs, err)
	}
	return errors.Join(errs...)
}

func (st *stack) removeStore() error {
	if st.storeDir == "" {
		return nil
	}
	if err := os.RemoveAll(st.storeDir); err != nil {
		return fmt.Errorf("remove store dir: %w", err)
	}
	return nil
}
