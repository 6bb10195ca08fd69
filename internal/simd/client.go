package simd

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strings"

	"github.com/dsn2020-algorand/incentives/internal/adversary"
	"github.com/dsn2020-algorand/incentives/internal/experiments"
)

// Client talks to a daemon's job API. The zero HTTP field uses
// http.DefaultClient.
type Client struct {
	Base string // daemon base URL, e.g. "http://127.0.0.1:8080"
	HTTP *http.Client
}

func (c *Client) client() *http.Client {
	if c.HTTP != nil {
		return c.HTTP
	}
	return http.DefaultClient
}

// apiError decodes the daemon's {"error": ...} body for non-2xx
// responses. The daemon's own "simd: " prefix is stripped so callers
// prepending their command name don't stutter.
func apiError(resp *http.Response) error {
	defer resp.Body.Close()
	var body struct {
		Error string `json:"error"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&body); err == nil && body.Error != "" {
		return fmt.Errorf("daemon: %s", strings.TrimPrefix(body.Error, "simd: "))
	}
	return fmt.Errorf("daemon returned %s", resp.Status)
}

// Submit posts a job and returns its initial status.
func (c *Client) Submit(req JobRequest) (JobStatus, error) {
	var st JobStatus
	blob, err := json.Marshal(req)
	if err != nil {
		return st, err
	}
	resp, err := c.client().Post(c.Base+"/api/v1/jobs", "application/json", bytes.NewReader(blob))
	if err != nil {
		return st, err
	}
	if resp.StatusCode != http.StatusOK {
		return st, apiError(resp)
	}
	defer resp.Body.Close()
	return st, json.NewDecoder(resp.Body).Decode(&st)
}

// Status fetches one job's status.
func (c *Client) Status(id string) (JobStatus, error) {
	var st JobStatus
	resp, err := c.client().Get(c.Base + "/api/v1/jobs/" + id)
	if err != nil {
		return st, err
	}
	if resp.StatusCode != http.StatusOK {
		return st, apiError(resp)
	}
	defer resp.Body.Close()
	return st, json.NewDecoder(resp.Body).Decode(&st)
}

// List fetches every job's status in submission order.
func (c *Client) List() ([]JobStatus, error) {
	resp, err := c.client().Get(c.Base + "/api/v1/jobs")
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, apiError(resp)
	}
	defer resp.Body.Close()
	var out []JobStatus
	return out, json.NewDecoder(resp.Body).Decode(&out)
}

// Stream opens the job's NDJSON wire stream: a full replay from event
// zero, following live until the job settles. The caller closes it.
func (c *Client) Stream(id string) (io.ReadCloser, error) {
	resp, err := c.client().Get(c.Base + "/api/v1/jobs/" + id + "/stream")
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, apiError(resp)
	}
	return resp.Body, nil
}

// restoredCounter counts restored cells passing through a replay; a
// stream from a resumed job carries them audit-only, which rules out
// rebuilding the row-level stream summary client-side.
type restoredCounter struct {
	n int
}

func (r *restoredCounter) CellStart(cell experiments.Cell, _ []string) error {
	if cell.Restored {
		r.n++
	}
	return nil
}
func (r *restoredCounter) Row(experiments.Cell, experiments.Row) error         { return nil }
func (r *restoredCounter) AuditEvent(experiments.Cell, adversary.Report) error { return nil }
func (r *restoredCounter) CellDone(experiments.Cell) error                     { return nil }

// WriteGridOutputs replays a grid job's wire stream into the CLI's sink
// stack, writing into dir the exact files `cmd/scenario -full` would
// have produced: full_<scenario>_s<seed>.csv and _audit.csv per cell,
// full_grid_summary.csv, and full_grid_stream_summary.csv. spec must be
// the submitted job's grid spec (the summary tables derive their
// scenario/seed columns from the grid shape). Streams from resumed jobs
// carry restored cells audit-only; their per-cell files were written by
// the pre-interruption client, so only the row-level stream summary is
// skipped. Returns the grid's total safety violations — the CLI's exit
// verdict.
func WriteGridOutputs(stream io.Reader, spec GridJobSpec, dir string, logw io.Writer) (int, error) {
	cfg, err := spec.Config()
	if err != nil {
		return 0, err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return 0, err
	}
	csv := experiments.NewGridCSVSink(dir, cfg, "full_grid_summary.csv")
	csv.SetLog(logw)
	summary := experiments.NewSummarySink(0)
	restored := &restoredCounter{}
	if err := experiments.ReplayWire(stream, experiments.MultiSink(csv, summary, restored)); err != nil {
		return 0, err
	}
	if n, want := csv.CellsSeen(), len(cfg.Scenarios)*len(cfg.Seeds); n != want {
		return 0, fmt.Errorf("simd: the grid stream holds %d of the grid's %d cells", n, want)
	}
	if err := csv.Close(); err != nil {
		return 0, err
	}
	if restored.n == 0 {
		table, err := summary.Table()
		if err != nil {
			return 0, err
		}
		path := filepath.Join(dir, "full_grid_stream_summary.csv")
		f, err := os.Create(path)
		if err != nil {
			return 0, err
		}
		if err := table.WriteCSV(f); err != nil {
			f.Close()
			return 0, err
		}
		if err := f.Close(); err != nil {
			return 0, err
		}
		if logw != nil {
			fmt.Fprintf(logw, "wrote %s\n", path)
		}
	} else if logw != nil {
		fmt.Fprintf(logw, "skipping full_grid_stream_summary.csv: %d restored cell(s) streamed audit-only\n", restored.n)
	}
	return csv.SafetyViolations(), nil
}
