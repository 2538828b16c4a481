package main

import (
	"bytes"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// harness owns everything the benchmark leaves on disk and every process
// it starts. cacheDir (.bench_build/ under the checkout root) keeps what
// is expensive and seed-independent — the go build cache, the two
// binaries, the generated snapshots — across invocations; runDir is this
// invocation's scratch (ingest directories) and is removed by close.
type harness struct {
	root     string // checkout root: holds go.mod and cmd/
	cacheDir string
	runDir   string
	rec      *recorder

	mu      sync.Mutex
	daemons []*daemon
}

func newHarness(root string) (*harness, error) {
	if _, err := os.Stat(filepath.Join(root, "cmd", "fastmatchd")); err != nil {
		return nil, fmt.Errorf("%s is not a fastmatch checkout: %w", root, err)
	}
	h := &harness{root: root, cacheDir: filepath.Join(root, ".bench_build"), rec: newRecorder()}
	for _, d := range []string{"bin", "data"} {
		if err := os.MkdirAll(filepath.Join(h.cacheDir, d), 0o755); err != nil {
			return nil, err
		}
	}
	var err error
	h.runDir, err = os.MkdirTemp(h.cacheDir, "run-")
	return h, err
}

// close stops every daemon still running and removes the run directory.
// It is safe to call more than once and from the signal handler.
func (h *harness) close() {
	h.mu.Lock()
	ds := h.daemons
	h.daemons = nil
	h.mu.Unlock()
	for _, d := range ds {
		d.stop()
	}
	os.RemoveAll(h.runDir)
}

func (h *harness) bin(name string) string { return filepath.Join(h.cacheDir, "bin", name) }

// build compiles cmd/datagen and cmd/fastmatchd from the checkout. The
// go build cache lives under cacheDir too (run.sh exports GOCACHE), so
// nothing is written outside the checkout and a warm rebuild is a
// staleness check.
func (h *harness) build() error {
	defer h.rec.span("build", "")()
	cmd := command("go", "build", "-o", filepath.Join(h.cacheDir, "bin")+string(filepath.Separator), "./cmd/datagen", "./cmd/fastmatchd")
	cmd.Dir = h.root
	if out, err := cmd.CombinedOutput(); err != nil {
		return fmt.Errorf("go build: %w\n%s", err, out)
	}
	return nil
}

// datasetSeed fixes the generated tables: --seed varies the request
// streams, not the data, so snapshots are generated once per checkout
// (14 s and 570 MB for 20M rows) instead of once per run.
const datasetSeed = 1

// snapshot returns the path of the flights snapshot with the given row
// count, generating it with the datagen binary if it is not cached.
func (h *harness) snapshot(rows int) (string, error) {
	path := filepath.Join(h.cacheDir, "data", fmt.Sprintf("flights-%d.fms", rows))
	return path, h.datagen(rows, path, 0, []string{path})
}

// shardSnapshots returns the paths of the same table split by
// datagen -shards n, in global block order.
func (h *harness) shardSnapshots(rows, n int) ([]string, error) {
	base := filepath.Join(h.cacheDir, "data", fmt.Sprintf("flights-%d-of%d.fms", rows, n))
	paths := make([]string, n)
	for i := range paths {
		paths[i] = fmt.Sprintf("%s-shard%d.fms", strings.TrimSuffix(base, ".fms"), i)
	}
	return paths, h.datagen(rows, base, n, paths)
}

// datagen runs the datagen binary unless every output already exists.
// Outputs are written under a temporary name and renamed, so a killed
// run never leaves a truncated snapshot behind for the next one.
func (h *harness) datagen(rows int, out string, shards int, want []string) error {
	missing := false
	for _, p := range want {
		if _, err := os.Stat(p); err != nil {
			missing = true
		}
	}
	if !missing {
		return nil
	}
	defer h.rec.span("datagen", filepath.Base(out))()
	tmp := filepath.Join(h.runDir, filepath.Base(out))
	args := []string{"-dataset", "flights", "-rows", fmt.Sprint(rows), "-seed", fmt.Sprint(datasetSeed), "-out", "", "-snapshot", tmp}
	if shards > 1 {
		args = append(args, "-shards", fmt.Sprint(shards))
	}
	if b, err := command(h.bin("datagen"), args...).CombinedOutput(); err != nil {
		return fmt.Errorf("datagen %v: %w\n%s", args, err, b)
	}
	for _, p := range want {
		if err := os.Rename(filepath.Join(h.runDir, filepath.Base(p)), p); err != nil {
			return err
		}
	}
	return nil
}

// command prepares a child process that the kernel kills if the
// benchmark itself dies without running its clean-up (SIGKILL, or the
// exit the signal handler takes), so no child ever outlives it.
func command(name string, args ...string) *exec.Cmd {
	cmd := exec.Command(name, args...)
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	return cmd
}

// warmFile reads a file through once, into the page cache.
func warmFile(path string) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	_, err = io.Copy(io.Discard, f)
	return err
}

// daemon is one running fastmatchd child.
type daemon struct {
	name   string
	url    string
	cmd    *exec.Cmd
	stderr tailBuffer
	exited chan struct{} // closed once Wait returns
	killed atomic.Bool   // stop() asked for the exit
}

// tailBuffer keeps the last 16 KiB written to it: enough of a daemon's
// stderr to explain a crash without holding a long run's whole log.
type tailBuffer struct {
	mu  sync.Mutex
	buf []byte
}

func (t *tailBuffer) Write(p []byte) (int, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.buf = append(t.buf, p...)
	if over := len(t.buf) - 16<<10; over > 0 {
		t.buf = t.buf[over:]
	}
	return len(p), nil
}

func (t *tailBuffer) String() string {
	t.mu.Lock()
	defer t.mu.Unlock()
	return string(t.buf)
}

// freePort asks the kernel for an unused loopback port. The listener is
// closed before the daemon binds it; on a private loopback the window
// for someone else to take it is negligible.
func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer l.Close()
	return l.Addr().(*net.TCPAddr).Port, nil
}

// spawn starts a fastmatchd on a free loopback port with default flags
// plus args, logging at warn level so request logs cost nothing.
func (h *harness) spawn(name string, args ...string) (*daemon, error) {
	port, err := freePort()
	if err != nil {
		return nil, err
	}
	addr := fmt.Sprintf("127.0.0.1:%d", port)
	d := &daemon{name: name, url: "http://" + addr, exited: make(chan struct{})}
	d.cmd = command(h.bin("fastmatchd"), append([]string{"-listen", addr, "-log-level", "warn"}, args...)...)
	d.cmd.Dir = h.runDir
	d.cmd.Stderr = &d.stderr
	if err := d.cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting %s: %w", name, err)
	}
	go func() {
		d.cmd.Wait()
		close(d.exited)
	}()
	h.mu.Lock()
	h.daemons = append(h.daemons, d)
	h.mu.Unlock()
	return d, nil
}

// err reports a daemon that exited without being asked to, with the tail
// of its stderr.
func (d *daemon) err() error {
	select {
	case <-d.exited:
		if !d.killed.Load() {
			return fmt.Errorf("daemon %s exited: %v\n--- stderr ---\n%s", d.name, d.cmd.ProcessState, d.stderr.String())
		}
	default:
	}
	return nil
}

// waitHealthy polls /v1/healthz until the daemon reports ok.
func (d *daemon) waitHealthy(hc *http.Client) error {
	deadline := time.Now().Add(60 * time.Second)
	for {
		if err := d.err(); err != nil {
			return err
		}
		resp, err := hc.Get(d.url + "/v1/healthz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("daemon %s not healthy after 60s (last error: %v)\n--- stderr ---\n%s", d.name, err, d.stderr.String())
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// stop terminates the daemon and waits until it has been reaped: SIGTERM
// first so it drains and closes its files, SIGKILL after five seconds.
// Stopping a daemon that has already exited returns at once.
func (d *daemon) stop() {
	d.killed.Store(true)
	d.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-d.exited:
	case <-time.After(5 * time.Second):
		d.cmd.Process.Kill()
		<-d.exited
	}
}

// topology is a booted workload: the daemon queries go to, and every
// daemon behind it.
type topology struct {
	front   *daemon
	all     []*daemon
	proxies []*countingProxy
	// ingestDir is the live table's directory (ingest topology only).
	ingestDir string
}

// wireBytes sums the bytes the counting proxies carried in both
// directions; zero when the topology was booted without proxies.
func (t *topology) wireBytes() int64 {
	var n int64
	for _, p := range t.proxies {
		n += p.bytes.Load()
	}
	return n
}

func (t *topology) err() error {
	for _, d := range t.all {
		if err := d.err(); err != nil {
			return err
		}
	}
	return nil
}

// boot starts the workload's daemons and returns once all answer
// /v1/healthz. countWire puts a byte-counting proxy between a coordinator
// and its shards (traced runs only: it adds a hop).
func (h *harness) boot(hc *http.Client, w *workload, ds *dataset, countWire bool) (*topology, error) {
	t := &topology{}
	fail := func(err error) (*topology, error) {
		h.teardown(t)
		return nil, err
	}
	start := func(name string, args ...string) (*daemon, error) {
		d, err := h.spawn(name, args...)
		if err == nil {
			t.all = append(t.all, d)
		}
		return d, err
	}
	var err error
	switch w.topology {
	case "single":
		t.front, err = start(w.name, "-table", fmt.Sprintf("%s=%s?backend=%s", tableName, ds.path, w.backend))
	case "ingest":
		t.ingestDir, err = os.MkdirTemp(h.runDir, "live-")
		if err == nil {
			t.front, err = start(w.name, "-table", fmt.Sprintf("%s=%s?backend=ingest&columns=%s", tableName, t.ingestDir, strings.Join(ds.table.Columns(), ",")))
		}
	case "cluster3":
		args := []string{"-coordinator", tableName}
		for i, p := range ds.shardPaths {
			var sd *daemon
			if sd, err = start(fmt.Sprintf("shard%d", i), "-table", fmt.Sprintf("%s=%s?backend=mmap", tableName, p)); err != nil {
				break
			}
			shardURL := sd.url
			if countWire {
				var px *countingProxy
				if px, err = newCountingProxy(strings.TrimPrefix(sd.url, "http://")); err != nil {
					break
				}
				t.proxies = append(t.proxies, px)
				shardURL = "http://" + px.addr()
			}
			args = append(args, "-shard", fmt.Sprintf("s%d=%s", i, shardURL))
		}
		if err == nil {
			// Shards must be listening before the coordinator's first meta
			// round-trip, or its first answer would be degraded.
			for _, sd := range t.all {
				if err = sd.waitHealthy(hc); err != nil {
					break
				}
			}
		}
		if err == nil {
			t.front, err = start("coordinator", args...)
		}
	default:
		err = fmt.Errorf("unknown topology %q", w.topology)
	}
	if err != nil {
		return fail(err)
	}
	if err := t.front.waitHealthy(hc); err != nil {
		return fail(err)
	}
	return t, nil
}

// teardown stops a topology's daemons and proxies and removes its live
// table directory.
func (h *harness) teardown(t *topology) {
	for _, d := range t.all {
		d.stop()
	}
	for _, p := range t.proxies {
		p.close()
	}
	if t.ingestDir != "" {
		os.RemoveAll(t.ingestDir)
	}
}

// countingProxy forwards loopback TCP connections to one backend and
// counts the bytes carried in both directions: the coordinator↔shard
// wire volume, which no daemon counter reports.
type countingProxy struct {
	ln      net.Listener
	backend string
	bytes   atomic.Int64
	wg      sync.WaitGroup
}

func newCountingProxy(backend string) (*countingProxy, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	p := &countingProxy{ln: ln, backend: backend}
	p.wg.Add(1)
	go p.accept()
	return p, nil
}

func (p *countingProxy) addr() string { return p.ln.Addr().String() }

func (p *countingProxy) accept() {
	defer p.wg.Done()
	for {
		in, err := p.ln.Accept()
		if err != nil {
			return // listener closed
		}
		out, err := net.Dial("tcp", p.backend)
		if err != nil {
			in.Close()
			continue
		}
		for _, pair := range [][2]net.Conn{{in, out}, {out, in}} {
			p.wg.Add(1)
			go func(dst, src net.Conn) {
				defer p.wg.Done()
				io.Copy(countingWriter{dst, &p.bytes}, src)
				// Either side closing ends the pair, which unblocks the
				// opposite copy.
				dst.Close()
				src.Close()
			}(pair[0], pair[1])
		}
	}
}

// countingWriter adds every byte written through it to n as it goes:
// connections are kept alive across the whole window, so counting when a
// copy ends would count nothing.
type countingWriter struct {
	w io.Writer
	n *atomic.Int64
}

func (c countingWriter) Write(p []byte) (int, error) {
	n, err := c.w.Write(p)
	c.n.Add(int64(n))
	return n, err
}

// close stops accepting and waits for the forwarding goroutines; callers
// stop the daemons first, which closes every carried connection.
func (p *countingProxy) close() {
	p.ln.Close()
	p.wg.Wait()
}

// procWriteBytes reads the bytes a process has passed to write(2) so far
// (/proc/<pid>/io wchar): WAL and segment writes for an ingest daemon,
// plus its comparatively tiny HTTP responses. Zero when unreadable.
func procWriteBytes(pid int) int64 {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/io", pid))
	if err != nil {
		return 0
	}
	for _, line := range bytes.Split(b, []byte("\n")) {
		var n int64
		if _, err := fmt.Sscanf(string(line), "wchar: %d", &n); err == nil {
			return n
		}
	}
	return 0
}
