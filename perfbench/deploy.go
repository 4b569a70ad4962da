package main

import (
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"cellmg/internal/native"
	"cellmg/internal/server"
)

// serverOptions is cellmg-serve's default configuration sized for the
// host: MGPS over one worker per CPU, the durable job log on, the flight
// recorder off. Queue capacity, admission width and task caps keep the
// server defaults, as cellmg-serve does.
func serverOptions(dataDir string) server.Options {
	return server.Options{
		Workers: runtime.NumCPU(),
		Policy:  native.MGPS,
		DataDir: dataDir,
	}
}

// deployment is one server instance behind a loopback listener.
type deployment struct {
	srv    *server.Server
	hs     *http.Server
	base   string
	served chan struct{}
}

// openDeployment opens a server on dataDir and serves its API on an
// ephemeral loopback port. HTTP/1.1 and unencrypted HTTP/2 are both
// accepted; the load generator speaks HTTP/2 so that many concurrent SSE
// streams share at most NumCPU connections.
func openDeployment(dataDir string) (*deployment, error) {
	srv, err := server.Open(serverOptions(dataDir))
	if err != nil {
		return nil, fmt.Errorf("server.Open: %w", err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close()
		return nil, fmt.Errorf("listen: %w", err)
	}
	var protos http.Protocols
	protos.SetHTTP1(true)
	protos.SetUnencryptedHTTP2(true)
	d := &deployment{
		srv:    srv,
		hs:     &http.Server{Handler: srv.Handler(), Protocols: &protos},
		base:   "http://" + ln.Addr().String(),
		served: make(chan struct{}),
	}
	go func() {
		defer close(d.served)
		_ = d.hs.Serve(ln) // returns http.ErrServerClosed after Shutdown
	}()
	return d, nil
}

// Close stops the listener, waits for the serve loop to exit, then closes
// the server (flushing its log).
func (d *deployment) Close() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := d.hs.Shutdown(ctx); err != nil {
		_ = d.hs.Close()
	}
	<-d.served
	d.srv.Close()
}

// newClient returns an HTTP/2 (prior knowledge) client capped at NumCPU
// connections: the generator must not out-number the server's cores.
func newClient() *http.Client {
	var protos http.Protocols
	protos.SetUnencryptedHTTP2(true)
	return &http.Client{Transport: &http.Transport{
		Protocols:       &protos,
		MaxConnsPerHost: runtime.NumCPU(),
	}}
}

func healthz(c *http.Client, base string) error {
	resp, err := c.Get(base + "/v1/healthz")
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	_, _ = io.Copy(io.Discard, resp.Body)
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("healthz: status %d", resp.StatusCode)
	}
	return nil
}

// timeToReady opens a deployment on dataDir and returns the seconds from
// server.Open to the first 200 from /v1/healthz over loopback, then closes
// it. The client is fresh, so connection set-up is part of the time.
func timeToReady(dataDir string) (float64, error) {
	// Start every cycle from a collected heap, so a collection left over
	// from earlier work does not land inside some cycles and not others.
	runtime.GC()
	c := newClient()
	defer c.CloseIdleConnections()
	start := time.Now()
	d, err := openDeployment(dataDir)
	if err != nil {
		return 0, err
	}
	err = healthz(c, d.base)
	elapsed := time.Since(start).Seconds()
	c.CloseIdleConnections()
	d.Close()
	return elapsed, err
}

// setupTimes times n cold Open→ready cycles on empty data directories,
// the samples behind setup_s. One cycle is under a millisecond, far too
// short for a single sample to be steady.
func setupTimes(work, batch string, n int) ([]float64, error) {
	dirs := make([]string, n)
	for i := range dirs {
		dirs[i] = filepath.Join(work, fmt.Sprintf("setup-%s-%03d", batch, i))
		if err := os.MkdirAll(dirs[i], 0o755); err != nil {
			return nil, err
		}
	}
	return readyTimes(dirs)
}

// measureRestart is restart_s: the median time for server.Open to replay
// and compact a fresh copy of the log the run left, until ready.
func measureRestart(work, dataDir string, n int) (float64, error) {
	dirs := make([]string, n)
	for i := range dirs {
		dirs[i] = filepath.Join(work, fmt.Sprintf("restart-%03d", i))
		if err := copyDir(dataDir, dirs[i]); err != nil {
			return 0, err
		}
	}
	xs, err := readyTimes(dirs)
	if err != nil {
		return 0, err
	}
	return percentile(xs, 50), nil
}

// readyTimes times timeToReady on each prepared data dir. Every dir is
// prepared before the first is timed and removed after the last, so no
// timed cycle waits for the file system to finish creating or deleting
// another cycle's files.
func readyTimes(dirs []string) ([]float64, error) {
	xs := make([]float64, 0, len(dirs))
	for _, dir := range dirs {
		s, err := timeToReady(dir)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", filepath.Base(dir), err)
		}
		xs = append(xs, s)
	}
	for _, dir := range dirs {
		if err := os.RemoveAll(dir); err != nil {
			return nil, err
		}
	}
	return xs, nil
}

// copyDir copies the regular files of a flat directory (the job log keeps
// no subdirectories).
func copyDir(src, dst string) error {
	if err := os.MkdirAll(dst, 0o755); err != nil {
		return err
	}
	ents, err := os.ReadDir(src)
	if err != nil {
		return err
	}
	for _, e := range ents {
		if !e.Type().IsRegular() {
			continue
		}
		b, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			return err
		}
		if err := writeSynced(filepath.Join(dst, e.Name()), b); err != nil {
			return err
		}
	}
	return nil
}

// writeSynced writes a file and fsyncs it, so a restart reads a log that is
// on disk, as after a real crash, not one still being written back.
func writeSynced(path string, b []byte) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if _, err := f.Write(b); err != nil {
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// dirBytes sums the sizes of the regular files in a flat directory.
func dirBytes(dir string) (int64, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return 0, err
	}
	var n int64
	for _, e := range ents {
		info, err := e.Info()
		if err != nil {
			return 0, err
		}
		if info.Mode().IsRegular() {
			n += info.Size()
		}
	}
	return n, nil
}
