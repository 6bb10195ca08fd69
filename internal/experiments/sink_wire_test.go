package experiments

import (
	"bytes"
	"errors"
	"strings"
	"testing"
)

// TestWireRoundTripIdempotent checks that encode∘replay is the
// identity on wire bytes: streaming a grid through a WireSink and
// replaying those bytes into a second WireSink reproduces them
// exactly. This is the property the daemon's byte-identity contract
// rests on — a client re-encoding a received stream cannot drift.
func TestWireRoundTripIdempotent(t *testing.T) {
	if testing.Short() {
		t.Skip("grid simulation in -short mode")
	}
	cfg := smallGridConfig()
	var first bytes.Buffer
	if err := StreamScenarioGrid(cfg, NewWireSink(&first), StreamOptions{}); err != nil {
		t.Fatal(err)
	}
	var second bytes.Buffer
	if err := ReplayWire(bytes.NewReader(first.Bytes()), NewWireSink(&second)); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(first.Bytes(), second.Bytes()) {
		t.Fatalf("replay re-encoding differs from original stream (%d vs %d bytes)", first.Len(), second.Len())
	}

	// The replayed stream also satisfies the Sink grammar end to end.
	rec := newRecordingSink()
	if err := ReplayWire(bytes.NewReader(first.Bytes()), rec); err != nil {
		t.Fatal(err)
	}
	if got, want := rec.cellCount(), len(cfg.Scenarios)*len(cfg.Seeds); got != want {
		t.Fatalf("replayed %d cells, want %d", got, want)
	}
}

// TestReplayWireGrammar rejects streams that violate the Sink event
// grammar, with the offending line identified.
func TestReplayWireGrammar(t *testing.T) {
	cases := []struct {
		name, stream, want string
	}{
		{
			name:   "row outside cell",
			stream: `{"event":"row","cell":0,"row":0,"values":[1]}`,
			want:   "row for cell 0 outside its cell",
		},
		{
			name: "row for wrong cell",
			stream: `{"event":"cell_start","cell":0,"columns":["x"]}
{"event":"row","cell":1,"row":0,"values":[1]}`,
			want: "row for cell 1 outside its cell",
		},
		{
			name: "cell_start while open",
			stream: `{"event":"cell_start","cell":0,"columns":["x"]}
{"event":"cell_start","cell":1,"columns":["x"]}`,
			want: "cell 1 started while cell 0 is open",
		},
		{
			name: "audit without report",
			stream: `{"event":"cell_start","cell":0,"columns":["x"]}
{"event":"audit","cell":0}`,
			want: "audit event without a report",
		},
		{
			name:   "cell_done outside cell",
			stream: `{"event":"cell_done","cell":0}`,
			want:   "cell_done for cell 0 outside its cell",
		},
		{
			name:   "unknown event",
			stream: `{"event":"cell_begin","cell":0}`,
			want:   `unknown event "cell_begin"`,
		},
		{
			name:   "truncated inside cell",
			stream: `{"event":"cell_start","cell":3,"columns":["x"]}`,
			want:   "stream ended inside cell 3",
		},
		{
			name:   "malformed json",
			stream: `{"event":`,
			want:   "wire line 1",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := ReplayWire(strings.NewReader(tc.stream), newRecordingSink())
			if err == nil {
				t.Fatalf("stream accepted, want error containing %q", tc.want)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not contain %q", err, tc.want)
			}
		})
	}
	if err := ReplayWire(strings.NewReader(""), nil); err == nil {
		t.Fatal("nil sink accepted")
	}
}

// TestStreamCachedReplayByteIdentical checks the completed-cell cache
// contract: a grid whose cells are all served from cached GridCells
// streams byte-identical wire events to a fresh simulation.
func TestStreamCachedReplayByteIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("grid simulation in -short mode")
	}
	cfg := smallGridConfig()
	cells, err := materializeCells(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var fresh bytes.Buffer
	if err := StreamScenarioGrid(cfg, NewWireSink(&fresh), StreamOptions{}); err != nil {
		t.Fatal(err)
	}
	cached := make(map[int]*GridCell, len(cells))
	for i := range cells {
		cached[i] = &cells[i]
	}
	var warm bytes.Buffer
	if err := StreamScenarioGrid(cfg, NewWireSink(&warm), StreamOptions{Cached: cached}); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(fresh.Bytes(), warm.Bytes()) {
		t.Fatalf("cached replay differs from fresh stream (%d vs %d bytes)", fresh.Len(), warm.Len())
	}
}

// TestStreamInterrupt checks the graceful-shutdown seam: with
// Interrupt already true, every cell fails with ErrInterrupted before
// simulating and nothing reaches the sink.
func TestStreamInterrupt(t *testing.T) {
	cfg := smallGridConfig()
	rec := newRecordingSink()
	err := StreamScenarioGrid(cfg, rec, StreamOptions{Interrupt: func() bool { return true }})
	if !errors.Is(err, ErrInterrupted) {
		t.Fatalf("err = %v, want ErrInterrupted", err)
	}
	if len(rec.events) != 0 {
		t.Fatalf("%d events streamed from an interrupted-before-start grid, want 0", len(rec.events))
	}
}

// TestStreamInterruptSparesCachedCells checks that cached cells are
// still replayed when the interrupt is already raised — a draining
// daemon serves what it has without simulating anything new.
func TestStreamInterruptSparesCachedCells(t *testing.T) {
	if testing.Short() {
		t.Skip("grid simulation in -short mode")
	}
	cfg := smallGridConfig()
	cells, err := materializeCells(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cached := map[int]*GridCell{0: &cells[0]}
	rec := newRecordingSink()
	err = StreamScenarioGrid(cfg, rec, StreamOptions{Cached: cached, Interrupt: func() bool { return true }})
	if !errors.Is(err, ErrInterrupted) {
		t.Fatalf("err = %v, want ErrInterrupted", err)
	}
	if got := rec.cellCount(); got != 1 {
		t.Fatalf("streamed %d cells, want exactly the cached one", got)
	}
	if len(rec.events) == 0 || rec.events[0].Cell.Index != 0 {
		t.Fatal("cached cell 0 was not the cell streamed")
	}
}
