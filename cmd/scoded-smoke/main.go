// Command scoded-smoke drives a real scoded-serve binary through one of
// two end-to-end contracts, selected by -mode.
//
// -mode restart (the default) is the restart-durability smoke for
// -data-dir:
//
//  1. start scoded-serve with a fresh temporary -data-dir
//  2. upload the hockey dataset, append a second batch (two segments),
//     register constraints, and arm a dataset-bound monitor with a few
//     observations
//  3. capture /v1/checkall and /v1/monitors byte-for-byte
//  4. stop the server with SIGTERM and start a new process on the same
//     directory
//  5. assert the restarted server answers /v1/checkall and /v1/monitors
//     with byte-identical responses — the store-materialized relation,
//     re-parsed constraints and re-armed monitor are indistinguishable
//     from the pre-restart in-memory state
//
// -mode oocore is the out-of-core detection smoke (DESIGN.md section 16):
// phase 1 builds the same durable dataset on an unconstrained server and
// captures three /v1/checkall answers from the resident path — the
// registered family, a Spearman family and the registered family with
// auto_exact; phase 2 restarts on the same directory with GOMEMLIMIT set
// and -resident-bytes 1 — a budget no dataset fits under — plus a small
// -scan-window-rows, and asserts every answer is byte-identical while
// /metrics proves no relation was ever materialized (scoded_resident_bytes
// and scoded_resident_misses_total both stay 0): every family was answered
// by segment-streamed sufficient statistics.
//
// Usage:
//
//	scoded-smoke -serve ./bin/scoded-serve [-mode restart|oocore]
//	             [-players 600] [-timeout 2m]
//
// It exits 0 and prints "<mode> smoke: PASS" on success.
package main

import (
	"bytes"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"strings"
	"syscall"
	"time"

	"scoded/internal/datasets"
	"scoded/internal/relation"
)

func main() {
	serveBin := flag.String("serve", "", "path to the scoded-serve binary")
	mode := flag.String("mode", "restart", "smoke to run: restart (durability) or oocore (out-of-core detection)")
	players := flag.Int("players", 600, "hockey dataset size (pre-append)")
	timeout := flag.Duration("timeout", 2*time.Minute, "overall smoke budget")
	flag.Parse()
	if *serveBin == "" {
		fmt.Fprintln(os.Stderr, "scoded-smoke: missing -serve flag")
		os.Exit(2)
	}
	var err error
	switch *mode {
	case "restart":
		err = run(*serveBin, *players, *timeout)
	case "oocore":
		err = runOocore(*serveBin, *players, *timeout)
	default:
		fmt.Fprintf(os.Stderr, "scoded-smoke: unknown -mode %q (want restart or oocore)\n", *mode)
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "scoded-smoke:", err)
		os.Exit(1)
	}
	switch *mode {
	case "restart":
		fmt.Println("restart durability smoke: PASS")
	case "oocore":
		fmt.Println("out-of-core detection smoke: PASS")
	}
}

func run(serveBin string, players int, budget time.Duration) error {
	deadline := time.Now().Add(budget)
	dir, err := os.MkdirTemp("", "scoded-smoke-*")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	addr, err := freeAddr()
	if err != nil {
		return err
	}
	base := "http://" + addr

	// Phase 1: a fresh server accumulates durable state.
	srv, err := startServe(serveBin, dir, addr, deadline, nil, nil)
	if err != nil {
		return err
	}
	defer srv.kill()

	dirty := datasets.Hockey(datasets.HockeyOptions{Players: players, Seed: 7})
	head, tail, err := splitCSV(dirty.Rel, players-players/4)
	if err != nil {
		return err
	}
	if _, err := request("POST", base+"/v1/datasets?name=hockey", "text/csv", head, http.StatusCreated); err != nil {
		return fmt.Errorf("uploading hockey: %w", err)
	}
	if _, err := request("POST", base+"/v1/datasets/hockey/rows", "text/csv", tail, http.StatusOK); err != nil {
		return fmt.Errorf("appending hockey rows: %w", err)
	}
	for _, c := range []string{
		"GPM _||_ Games | DraftYear @ 0.05",
		"GPM _||_ DraftYear @ 0.05",
	} {
		body := fmt.Sprintf(`{"constraint": %q}`, c)
		if _, err := request("POST", base+"/v1/constraints", "application/json", []byte(body), http.StatusCreated); err != nil {
			return fmt.Errorf("adding constraint %q: %w", c, err)
		}
	}
	monReq := `{"kind": "numeric", "alpha": 0.05, "window": 64, "dataset": "hockey"}`
	if _, err := request("POST", base+"/v1/monitors", "application/json", []byte(monReq), http.StatusCreated); err != nil {
		return fmt.Errorf("creating monitor: %w", err)
	}
	obs := observationJSON(dirty.Rel, 48)
	if _, err := request("POST", base+"/v1/monitors/1/observe", "application/json", obs, http.StatusOK); err != nil {
		return fmt.Errorf("observing: %w", err)
	}

	checkReq := []byte(`{"dataset": "hockey", "workers": 1}`)
	before, err := request("POST", base+"/v1/checkall", "application/json", checkReq, http.StatusOK)
	if err != nil {
		return fmt.Errorf("checkall before restart: %w", err)
	}
	monBefore, err := request("GET", base+"/v1/monitors", "", nil, http.StatusOK)
	if err != nil {
		return fmt.Errorf("monitor list before restart: %w", err)
	}

	// Phase 2: SIGTERM, then a brand-new process on the same directory.
	if err := srv.stop(); err != nil {
		return fmt.Errorf("stopping server: %w", err)
	}
	srv, err = startServe(serveBin, dir, addr, deadline, nil, nil)
	if err != nil {
		return fmt.Errorf("restarting server: %w", err)
	}
	defer srv.kill()

	after, err := request("POST", base+"/v1/checkall", "application/json", checkReq, http.StatusOK)
	if err != nil {
		return fmt.Errorf("checkall after restart: %w", err)
	}
	if !bytes.Equal(before, after) {
		return fmt.Errorf("checkall diverged across restart:\nbefore: %s\nafter:  %s", before, after)
	}
	monAfter, err := request("GET", base+"/v1/monitors", "", nil, http.StatusOK)
	if err != nil {
		return fmt.Errorf("monitor list after restart: %w", err)
	}
	if !bytes.Equal(monBefore, monAfter) {
		return fmt.Errorf("monitors diverged across restart:\nbefore: %s\nafter:  %s", monBefore, monAfter)
	}
	if !bytes.Contains(monAfter, []byte(`"observed":48`)) {
		return fmt.Errorf("monitor not re-armed after restart: %s", monAfter)
	}
	if _, err := request("GET", base+"/v1/monitors/1/verdict", "", nil, http.StatusOK); err != nil {
		return fmt.Errorf("verdict after restart: %w", err)
	}
	return srv.stop()
}

// runOocore is the out-of-core detection smoke: the answer a byte-budgeted
// restart gives must be the resident answer, computed without ever
// materializing the relation.
func runOocore(serveBin string, players int, budget time.Duration) error {
	deadline := time.Now().Add(budget)
	dir, err := os.MkdirTemp("", "scoded-smoke-oocore-*")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	addr, err := freeAddr()
	if err != nil {
		return err
	}
	base := "http://" + addr

	// Phase 1: an unconstrained server builds the durable dataset and
	// answers the family from the resident path.
	srv, err := startServe(serveBin, dir, addr, deadline, nil, nil)
	if err != nil {
		return err
	}
	defer srv.kill()

	dirty := datasets.Hockey(datasets.HockeyOptions{Players: players, Seed: 7})
	head, tail, err := splitCSV(dirty.Rel, players-players/4)
	if err != nil {
		return err
	}
	if _, err := request("POST", base+"/v1/datasets?name=hockey", "text/csv", head, http.StatusCreated); err != nil {
		return fmt.Errorf("uploading hockey: %w", err)
	}
	if _, err := request("POST", base+"/v1/datasets/hockey/rows", "text/csv", tail, http.StatusOK); err != nil {
		return fmt.Errorf("appending hockey rows: %w", err)
	}
	for _, c := range []string{
		"GPM _||_ Games | DraftYear @ 0.05",
		"GPM _||_ DraftYear @ 0.05",
	} {
		body := fmt.Sprintf(`{"constraint": %q}`, c)
		if _, err := request("POST", base+"/v1/constraints", "application/json", []byte(body), http.StatusCreated); err != nil {
			return fmt.Errorf("adding constraint %q: %w", c, err)
		}
	}
	checkReqs := [][]byte{
		[]byte(`{"dataset": "hockey", "workers": 1}`),
		[]byte(`{"dataset": "hockey", "constraints": ["GPM _||_ Games | DraftYear @ 0.05", "GPM _||_ Games @ 0.05"], "method": "spearman", "workers": 1}`),
		[]byte(`{"dataset": "hockey", "auto_exact": true, "workers": 1}`),
	}
	resident := make([][]byte, len(checkReqs))
	for i, req := range checkReqs {
		if resident[i], err = request("POST", base+"/v1/checkall", "application/json", req, http.StatusOK); err != nil {
			return fmt.Errorf("resident checkall %s: %w", req, err)
		}
	}
	if err := srv.stop(); err != nil {
		return fmt.Errorf("stopping unconstrained server: %w", err)
	}

	// Phase 2: same directory, but under a runtime memory limit and a
	// resident budget of one byte, so every checkall must stream.
	srv, err = startServe(serveBin, dir, addr, deadline,
		[]string{"-resident-bytes", "1", "-scan-window-rows", "64"},
		[]string{"GOMEMLIMIT=64MiB"})
	if err != nil {
		return fmt.Errorf("restarting with resident budget: %w", err)
	}
	defer srv.kill()

	for i, req := range checkReqs {
		streamed, err := request("POST", base+"/v1/checkall", "application/json", req, http.StatusOK)
		if err != nil {
			return fmt.Errorf("streamed checkall %s: %w", req, err)
		}
		if !bytes.Equal(resident[i], streamed) {
			return fmt.Errorf("streamed checkall %s diverged from resident:\nresident: %s\nstreamed: %s", req, resident[i], streamed)
		}
	}
	metrics, err := request("GET", base+"/metrics", "", nil, http.StatusOK)
	if err != nil {
		return fmt.Errorf("metrics after streamed checkall: %w", err)
	}
	// The proof the answer was computed out of core: no relation bytes are
	// resident and no store materialization (miss) ever ran.
	for _, gauge := range []string{
		"scoded_resident_bytes 0",
		"scoded_resident_misses_total 0",
		"scoded_resident_relations 0",
	} {
		if !containsMetric(metrics, gauge) {
			return fmt.Errorf("metrics missing %q after streamed checkall:\n%s", gauge, metrics)
		}
	}
	return srv.stop()
}

// containsMetric reports whether the plain-text metrics payload carries the
// exact "name value" line.
func containsMetric(metrics []byte, line string) bool {
	for _, l := range strings.Split(string(metrics), "\n") {
		if strings.TrimSpace(l) == line {
			return true
		}
	}
	return false
}

// serveProc is one scoded-serve process under test.
type serveProc struct{ cmd *exec.Cmd }

// startServe launches the binary on dir/addr plus any extra flags, with
// extraEnv appended to the inherited environment, and waits for /healthz.
func startServe(bin, dir, addr string, deadline time.Time, extraArgs, extraEnv []string) (*serveProc, error) {
	args := append([]string{"-addr", addr, "-data-dir", dir}, extraArgs...)
	cmd := exec.Command(bin, args...)
	if len(extraEnv) > 0 {
		cmd.Env = append(os.Environ(), extraEnv...)
	}
	cmd.Stdout = os.Stderr
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	p := &serveProc{cmd: cmd}
	for {
		resp, err := http.Get("http://" + addr + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return p, nil
			}
		}
		if time.Now().After(deadline) {
			p.kill()
			return nil, fmt.Errorf("server on %s did not become ready", addr)
		}
		time.Sleep(50 * time.Millisecond)
	}
}

// stop terminates the server the way an orchestrator would — SIGTERM and a
// graceful drain — and waits for the process to exit so the listen address
// is free for the successor.
func (p *serveProc) stop() error {
	if err := p.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		return err
	}
	// scoded-serve exits 0 after a clean drain.
	return p.cmd.Wait()
}

func (p *serveProc) kill() {
	if p.cmd.ProcessState == nil {
		p.cmd.Process.Kill()
		p.cmd.Wait()
	}
}

func freeAddr() (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	addr := l.Addr().String()
	l.Close()
	return addr, nil
}

func request(method, url, contentType string, body []byte, want int) ([]byte, error) {
	req, err := http.NewRequest(method, url, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	if contentType != "" {
		req.Header.Set("Content-Type", contentType)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != want {
		return nil, fmt.Errorf("%s %s: status %d (want %d): %s", method, url, resp.StatusCode, want, data)
	}
	return data, nil
}

// splitCSV renders the relation as two CSV documents: rows [0, cut) with
// the header, and rows [cut, n) with the header (the append endpoint
// requires one).
func splitCSV(rel *relation.Relation, cut int) (head, tail []byte, err error) {
	var full bytes.Buffer
	if err := rel.WriteCSV(&full); err != nil {
		return nil, nil, err
	}
	lines := strings.SplitAfter(full.String(), "\n")
	header := lines[0]
	if cut < 0 || cut+1 > len(lines) {
		return nil, nil, fmt.Errorf("split point %d out of range", cut)
	}
	head = []byte(header + strings.Join(lines[1:cut+1], ""))
	tail = []byte(header + strings.Join(lines[cut+1:], ""))
	return head, tail, nil
}

// observationJSON builds an observe batch from the first n (GPM, Games)
// pairs of the generated dataset.
func observationJSON(rel *relation.Relation, n int) []byte {
	gpm := rel.MustColumn("GPM").Floats()
	games := rel.MustColumn("Games").Floats()
	var b bytes.Buffer
	b.WriteString(`{"x": [`)
	for i := 0; i < n; i++ {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%g", gpm[i])
	}
	b.WriteString(`], "y": [`)
	for i := 0; i < n; i++ {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%g", games[i])
	}
	b.WriteString(`]}`)
	return b.Bytes()
}
