package main

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"strconv"
	"strings"
	"time"

	"amped/internal/serve"
)

// server is one in-process serve.Server listening on a loopback port.
type server struct {
	srv  *serve.Server
	hs   *http.Server
	url  string
	done chan struct{} // closed when Serve has returned
}

func startServer(cfg serve.Config) (*server, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s := &server{
		srv:  serve.New(cfg),
		url:  "http://" + ln.Addr().String(),
		done: make(chan struct{}),
	}
	s.hs = &http.Server{Handler: s.srv.Handler()}
	go func() {
		defer close(s.done)
		_ = s.hs.Serve(ln) // returns ErrServerClosed on stop
	}()
	return s, nil
}

// stop shuts the listener down, waits for in-flight requests and for the
// server's background work, and returns once Serve has exited.
func (s *server) stop() {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	_ = s.hs.Shutdown(ctx) // a timeout leaves Close below to cut what remains
	s.hs.Close()
	s.srv.Close()
	<-s.done
}

// newClient returns an HTTP client holding at most conns connections.
func newClient(conns int) *http.Client {
	return &http.Client{
		Transport: &http.Transport{
			MaxConnsPerHost:     conns,
			MaxIdleConnsPerHost: conns,
			DisableCompression:  true,
		},
		Timeout: 120 * time.Second,
	}
}

// healthy waits until the server at url answers /healthz with 200.
func healthy(c *http.Client, url string) error {
	resp, err := c.Get(url + "/healthz")
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	_, _ = io.Copy(io.Discard, resp.Body)
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("%s/healthz = %d", url, resp.StatusCode)
	}
	return nil
}

// post sends body to url and returns the status and the whole response
// body, with spans around the round trip and the body read.
func post(c *http.Client, ot *opTrace, url string, body []byte) (int, []byte, error) {
	return send(c, ot, http.MethodPost, url, body)
}

func send(c *http.Client, ot *opTrace, method, url string, body []byte) (int, []byte, error) {
	req, err := http.NewRequest(method, url, bytesReader(body))
	if err != nil {
		return 0, nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	ot.enter("http.RoundTrip")
	resp, err := c.Do(req)
	ot.exit()
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	ot.enter("http.ReadBody")
	data, err := io.ReadAll(resp.Body)
	ot.exit()
	return resp.StatusCode, data, err
}

// bytesReader returns a reader over b, or a nil reader for a nil body.
func bytesReader(b []byte) io.Reader {
	if b == nil {
		return nil
	}
	return bytes.NewReader(b)
}

// scrape reads a server's /metrics exposition into series -> value.
func scrape(c *http.Client, url string) (map[string]float64, error) {
	resp, err := c.Get(url + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("%s/metrics = %d", url, resp.StatusCode)
	}
	out := map[string]float64{}
	sc := bufio.NewScanner(resp.Body)
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
		out[line[:i]] = v
	}
	return out, sc.Err()
}

// delta returns after-before for every series whose name starts with
// prefix, summed.
func delta(before, after map[string]float64, prefix string) float64 {
	var d float64
	for k, v := range after {
		if strings.HasPrefix(k, prefix) {
			d += v - before[k]
		}
	}
	return d
}

// phaseRows turns the amped_phase_duration_seconds sums a server recorded
// between two scrapes into attribution rows, as shares of total, plus a row
// for the time no server phase covers: transport, the client, and server
// work outside any recorded phase. (The cache phase encloses compile, so
// the remainder is a floor.)
func phaseRows(before, after map[string]float64, total time.Duration) []layerShare {
	const prefix = `amped_phase_duration_seconds_sum{phase="`
	var rows []layerShare
	rest := total
	for k := range after {
		if !strings.HasPrefix(k, prefix) {
			continue
		}
		d := time.Duration((after[k] - before[k]) * 1e9)
		if d <= 0 {
			continue
		}
		rest -= d
		name := "server." + strings.TrimSuffix(strings.TrimPrefix(k, prefix), `"}`)
		rows = append(rows, layerShare{Layer: name, Self: d, Share: float64(d) / float64(total)})
	}
	rest = max(rest, 0)
	rows = append(rows, layerShare{Layer: "(outside server phases)", Self: rest, Share: float64(rest) / float64(total)})
	sortRows(rows)
	return rows
}
