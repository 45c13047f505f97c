package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"strconv"
	"strings"
	"time"

	"cycledetect/internal/serve"
	"cycledetect/internal/sweep"
)

func logStderr(format string, args ...any) { fmt.Fprintf(os.Stderr, format+"\n", args...) }

// rig is an in-process serve.Server on a loopback listener plus the
// benchmark's keep-alive HTTP client (at most `clients` connections).
type rig struct {
	srv    *serve.Server
	hs     *http.Server
	url    string
	client *http.Client
	done   chan struct{}
}

func newRig(opts serve.Options) (*rig, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listen: %w", err)
	}
	srv := serve.NewServer(opts)
	r := &rig{
		srv:  srv,
		hs:   &http.Server{Handler: srv.Handler(), ReadHeaderTimeout: 10 * time.Second},
		url:  "http://" + ln.Addr().String(),
		done: make(chan struct{}),
		client: &http.Client{Transport: &http.Transport{
			Proxy:               nil,
			MaxIdleConnsPerHost: clients,
			MaxConnsPerHost:     clients,
			DisableCompression:  true,
		}},
	}
	go func() {
		defer close(r.done)
		r.hs.Serve(ln) // returns http.ErrServerClosed on Shutdown
	}()
	return r, nil
}

// close stops the listener, waits for the serving goroutine, and releases
// the server's compiled-core store.
func (r *rig) close() {
	r.client.CloseIdleConnections()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	r.hs.Shutdown(ctx)
	<-r.done
	r.srv.Close()
}

// post sends body to path and returns the status and the full response
// body.
func (r *rig) post(ctx context.Context, path string, body []byte) (int, []byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, r.url+path, bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := r.client.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return resp.StatusCode, b, err
}

func (r *rig) get(ctx context.Context, path string) ([]byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, r.url+path, nil)
	if err != nil {
		return nil, err
	}
	resp, err := r.client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: status %d", path, resp.StatusCode)
	}
	return io.ReadAll(resp.Body)
}

// query posts one query and decodes the answer, also returning the
// response body's size; a non-200 status is an error.
func (r *rig) query(ctx context.Context, q *query) (*serve.QueryResponse, int, error) {
	status, body, err := r.post(ctx, "/query", q.body)
	if err != nil {
		return nil, len(body), err
	}
	if status != http.StatusOK {
		return nil, len(body), fmt.Errorf("POST /query: status %d: %s", status, strings.TrimSpace(string(body)))
	}
	var resp serve.QueryResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		return nil, len(body), fmt.Errorf("POST /query: %w", err)
	}
	return &resp, len(body), nil
}

// sweepLine is one line of a streamed /sweep response: a row, or the
// terminal summary/error object (Event set).
type sweepLine struct {
	sweep.Result
	Event string `json:"event"`
	Error string `json:"error"`
}

// sweep posts a spec and reads the JSON-lines stream to its terminal
// event, returning the rows in arrival (= job) order. onRow, when non-nil,
// sees each row as it arrives.
func (r *rig) sweep(ctx context.Context, spec *sweep.Spec, onRow func(*sweep.Result)) ([]sweep.Result, error) {
	body, err := json.Marshal(spec)
	if err != nil {
		return nil, err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, r.url+"/sweep", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := r.client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		b, _ := io.ReadAll(resp.Body)
		return nil, fmt.Errorf("POST /sweep: status %d: %s", resp.StatusCode, strings.TrimSpace(string(b)))
	}
	var rows []sweep.Result
	dec := json.NewDecoder(resp.Body)
	for {
		var l sweepLine
		if err := dec.Decode(&l); err != nil {
			return rows, fmt.Errorf("POST /sweep: stream ended without a summary: %w", err)
		}
		switch l.Event {
		case "":
			rows = append(rows, l.Result)
			if onRow != nil {
				onRow(&l.Result)
			}
		case "summary":
			return rows, nil
		default:
			return rows, fmt.Errorf("POST /sweep: %s: %s", l.Event, l.Error)
		}
	}
}

// scrape is one reading of GET /metrics as series name (with labels) to
// value.
type scrape map[string]float64

func (r *rig) scrapeMetrics(ctx context.Context) (scrape, error) {
	b, err := r.get(ctx, "/metrics")
	if err != nil {
		return nil, err
	}
	s := scrape{}
	sc := bufio.NewScanner(bytes.NewReader(b))
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			continue
		}
		s[line[:i]] = v
	}
	return s, sc.Err()
}

func (r *rig) stats(ctx context.Context) (*serve.Stats, error) {
	b, err := r.get(ctx, "/stats")
	if err != nil {
		return nil, err
	}
	var st serve.Stats
	if err := json.Unmarshal(b, &st); err != nil {
		return nil, fmt.Errorf("GET /stats: %w", err)
	}
	return &st, nil
}
