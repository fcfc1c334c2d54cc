// Package campaign is the durable execution layer over driver.Session:
// it runs sweep campaigns with their progress journaled to an
// append-only, CRC-framed, fsync-batched file, so a campaign killed by a
// crash, OOM, or preemption resumes from the journal bit-identically to
// an uninterrupted run — completed points are skipped, a point caught
// mid-replication restarts at replicate Folded under the pinned CRN seed
// schedule and folds into its restored accumulator state. On top of the
// journal it layers graceful degradation: each point gets one attempt
// per campaign run, under an optional deadline, and a worker panic or
// timeout quarantines that point as a per-point error while the rest of
// the grid runs. A replicate is a pure function of (seed, index), so a
// second attempt in the same run would fail again at the same replicate;
// the restart that can help is a resume, which re-attempts quarantined
// points from their last journaled snapshot.
package campaign

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"

	"repro/internal/driver"
	"repro/internal/faultinject"
	"repro/internal/stats"
)

// Journal format: one record per line, framed as
//
//	crc32c(payload) as 8 lowercase hex digits, one space, payload, '\n'
//
// where payload is a compact JSON envelope {"t": <type>, "d": <record>}.
// The frame makes every record self-verifying: a torn tail (crash or
// short write mid-record) or a bit-flipped line fails its checksum and
// replay stops at the last intact record — exactly the prefix the fsync
// discipline guaranteed durable. Reopening for append truncates the torn
// tail so the journal stays a clean sequence of verified frames.
const (
	journalVersion = 1

	recHeader      = "header"
	recSnap        = "snap"
	recPointDone   = "point_done"
	recAttemptFail = "attempt_failed"
	recPointError  = "point_error"
	recCacheHit    = "cache_hit"
	recSeal        = "seal"
)

// crcTable is the Castagnoli polynomial — hardware-accelerated on
// mainstream CPUs and the checksum framing convention of most journaled
// stores.
var crcTable = crc32.MakeTable(crc32.Castagnoli)

// Header is the journal's first record: it pins what campaign the
// journal belongs to, so a resume against a different configuration —
// different grid, seed, replication count, options — is rejected instead
// of silently merging incompatible state.
type Header struct {
	Version int `json:"version"`
	// Fingerprint is the SHA-256 of the canonical campaign spec (see
	// fingerprint()); resume requires an exact match.
	Fingerprint string `json:"fingerprint"`
	// Points and Runs describe the campaign's shape for humans and
	// sanity checks.
	Points int `json:"points"`
	Runs   int `json:"runs"`
	// Seed is the campaign's master seed.
	Seed uint64 `json:"seed"`
}

// extFloat is a float64 whose JSON form survives IEEE specials: +Inf
// (the CI half-width below two observations) round-trips as the string
// "inf" instead of failing to encode.
type extFloat float64

// MarshalJSON implements json.Marshaler.
func (f extFloat) MarshalJSON() ([]byte, error) {
	v := float64(f)
	switch {
	case math.IsNaN(v):
		return []byte(`"nan"`), nil
	case math.IsInf(v, 1):
		return []byte(`"inf"`), nil
	case math.IsInf(v, -1):
		return []byte(`"-inf"`), nil
	}
	return json.Marshal(v)
}

// UnmarshalJSON implements json.Unmarshaler.
func (f *extFloat) UnmarshalJSON(b []byte) error {
	if len(b) > 0 && b[0] == '"' {
		var s string
		if err := json.Unmarshal(b, &s); err != nil {
			return err
		}
		switch s {
		case "nan":
			*f = extFloat(math.NaN())
		case "inf":
			*f = extFloat(math.Inf(1))
		case "-inf":
			*f = extFloat(math.Inf(-1))
		default:
			return fmt.Errorf("campaign: bad extFloat %q", s)
		}
		return nil
	}
	var v float64
	if err := json.Unmarshal(b, &v); err != nil {
		return err
	}
	*f = extFloat(v)
	return nil
}

// mcRecord is the serializable aggregate of a completed point — the
// subset of driver.MCResult a streaming campaign materialises.
type mcRecord struct {
	Strategy        string        `json:"strategy"`
	Summary         summaryRecord `json:"summary"`
	MeanUtilization float64       `json:"mean_utilization"`
	MeanFailures    float64       `json:"mean_failures"`
	RunsUsed        int           `json:"runs_used"`
	CIHalfWidth     extFloat      `json:"ci_half_width"`
	Confidence      float64       `json:"confidence"`
	Cached          bool          `json:"cached,omitempty"`
}

// summaryRecord mirrors stats.Summary with special-safe floats.
type summaryRecord struct {
	N      int      `json:"n"`
	Mean   extFloat `json:"mean"`
	Min    extFloat `json:"min"`
	Max    extFloat `json:"max"`
	P10    extFloat `json:"p10"`
	P25    extFloat `json:"p25"`
	P50    extFloat `json:"p50"`
	P75    extFloat `json:"p75"`
	P90    extFloat `json:"p90"`
	StdDev extFloat `json:"stddev"`
}

type snapRecord struct {
	Point int               `json:"point"`
	Snap  driver.MCSnapshot `json:"snap"`
}

type doneRecord struct {
	Point int      `json:"point"`
	MC    mcRecord `json:"mc"`
}

type failRecord struct {
	Point   int    `json:"point"`
	Attempt int    `json:"attempt"`
	Error   string `json:"error"`
	// Panic marks a quarantined worker panic (the stack stays in the
	// process log; the journal records the fact).
	Panic bool `json:"panic,omitempty"`
}

// cacheHitRecord marks a point served Cached (from the result cache or
// a repeated cell): the following point_done record carries its
// aggregates with the cached flag set, so resume needs no cache. Older
// writers also journaled a "key", which the reader ignores.
type cacheHitRecord struct {
	Point int `json:"point"`
}

type envelope struct {
	T string          `json:"t"`
	D json.RawMessage `json:"d,omitempty"`
}

// Journal is the append side: buffered, CRC-framed, fsync-batched. Not
// safe for concurrent use — the campaign runner appends from one
// goroutine (the session's delivery goroutine is the caller's).
type Journal struct {
	f        *os.File
	buf      *bufio.Writer
	path     string
	unsynced int // records appended since the last fsync
	// SyncEvery batches fsyncs: at most SyncEvery-1 records are ever at
	// risk in the OS page cache. Point completions and seals always
	// force a sync. <= 1 syncs every record.
	SyncEvery int
	// failed latches the first write/sync error: once the journal can
	// no longer guarantee durability, every later append reports it.
	failed error
}

// append frames one record and writes it; barrier forces the fsync batch
// out (used for point completions and seals, the records resume depends
// on most).
func (j *Journal) append(typ string, payload any, barrier bool) error {
	if j == nil {
		return nil
	}
	if j.failed != nil {
		return j.failed
	}
	var raw json.RawMessage
	if payload != nil {
		b, err := json.Marshal(payload)
		if err != nil {
			return j.fail(fmt.Errorf("campaign: journal marshal %s: %w", typ, err))
		}
		raw = b
	}
	body, err := json.Marshal(envelope{T: typ, D: raw})
	if err != nil {
		return j.fail(fmt.Errorf("campaign: journal marshal %s: %w", typ, err))
	}
	line := make([]byte, 0, len(body)+10)
	line = append(line, fmt.Sprintf("%08x ", crc32.Checksum(body, crcTable))...)
	line = append(line, body...)
	line = append(line, '\n')
	if err := j.write(line); err != nil {
		return j.fail(err)
	}
	j.unsynced++
	if barrier || (j.SyncEvery > 1 && j.unsynced >= j.SyncEvery) || j.SyncEvery <= 1 {
		if err := j.sync(); err != nil {
			return j.fail(err)
		}
	}
	return nil
}

// write puts one framed line into the buffer, consulting the
// fault-injection site first: an injected ShortWrite flushes what came
// before, lands only the frame's prefix, and reports the tear — the
// torn-tail state a crash mid-write leaves on disk.
func (j *Journal) write(line []byte) error {
	if faultinject.Armed() {
		if err := faultinject.Fire(context.Background(), faultinject.SiteJournalWrite, len(line)); err != nil {
			var sw faultinject.ShortWrite
			if errors.As(err, &sw) {
				n := min(sw.N, len(line))
				if ferr := j.buf.Flush(); ferr != nil {
					return ferr
				}
				j.f.Write(line[:n]) //nolint:errcheck // the write is already failing
				j.f.Sync()          //nolint:errcheck
				return fmt.Errorf("campaign: journal write torn after %d bytes: %w", n, err)
			}
			return fmt.Errorf("campaign: journal write: %w", err)
		}
	}
	_, err := j.buf.Write(line)
	return err
}

// sync flushes the buffer and fsyncs the file.
func (j *Journal) sync() error {
	if err := j.buf.Flush(); err != nil {
		return err
	}
	if faultinject.Armed() {
		if err := faultinject.Fire(context.Background(), faultinject.SiteJournalSync, nil); err != nil {
			return fmt.Errorf("campaign: journal sync: %w", err)
		}
	}
	if err := j.f.Sync(); err != nil {
		return err
	}
	j.unsynced = 0
	return nil
}

// fail latches the journal's first durability error.
func (j *Journal) fail(err error) error {
	if j.failed == nil {
		j.failed = err
	}
	return j.failed
}

// Err reports the latched durability error, if any.
func (j *Journal) Err() error {
	if j == nil {
		return nil
	}
	return j.failed
}

// Seal appends the completion record and syncs: a sealed journal marks a
// campaign that finished every point, and resuming it replays results
// without simulating anything.
func (j *Journal) Seal() error {
	if j == nil {
		return nil
	}
	return j.append(recSeal, nil, true)
}

// Close flushes and syncs everything appended so far and closes the
// file. An interrupted campaign Closes without Sealing: every record
// already appended — completed points, the last mid-point snapshot — is
// durable, and a later resume picks up from exactly there.
func (j *Journal) Close() error {
	if j == nil {
		return nil
	}
	syncErr := j.sync()
	closeErr := j.f.Close()
	if j.failed != nil {
		return j.failed
	}
	if syncErr != nil {
		return syncErr
	}
	return closeErr
}

// PointState is one point's replayed journal state.
type PointState struct {
	// Done holds the point's final aggregates when it completed.
	Done *driver.MCResult
	// Snap is the latest mid-point snapshot (partial progress).
	Snap *driver.MCSnapshot
	// Attempts counts recorded failed attempts.
	Attempts int
	// Failed records a quarantined PointError; a resume re-attempts the
	// point.
	Failed bool
}

// ReplayState is everything a journal replay recovers.
type ReplayState struct {
	Header Header
	// Points maps grid index to replayed state.
	Points map[int]*PointState
	// Sealed reports a campaign that completed every point.
	Sealed bool
	// TornRecords counts invalid tail records dropped during replay
	// (crash mid-write); the reopened journal truncates them.
	TornRecords int
	// CacheHits counts points the journal records as satisfied from the
	// result cache instead of simulated.
	CacheHits int
}

// CreateJournal creates a new journal at path (failing if one exists)
// and writes its header durably.
func CreateJournal(path string, hdr Header, syncEvery int) (*Journal, error) {
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_EXCL, 0o644)
	if err != nil {
		return nil, fmt.Errorf("campaign: create journal: %w", err)
	}
	j := &Journal{f: f, buf: bufio.NewWriter(f), path: path, SyncEvery: syncEvery}
	hdr.Version = journalVersion
	if err := j.append(recHeader, hdr, true); err != nil {
		f.Close()
		os.Remove(path)
		return nil, err
	}
	return j, nil
}

// OpenJournal replays an existing journal and reopens it for appending:
// the replayed state tells the campaign what is already done, and the
// file is truncated at the first invalid frame so the torn tail of a
// crash mid-write never corrupts subsequent appends. Records after a
// corrupt frame are dropped too — ordering past a tear is not
// trustworthy, and everything the fsync discipline promised durable is
// by construction before it.
func OpenJournal(path string, syncEvery int) (*Journal, *ReplayState, error) {
	f, err := os.OpenFile(path, os.O_RDWR, 0o644)
	if err != nil {
		return nil, nil, fmt.Errorf("campaign: open journal: %w", err)
	}
	st, validOff, err := replay(f, path)
	if err != nil {
		f.Close()
		return nil, nil, err
	}
	if err := f.Truncate(validOff); err != nil {
		f.Close()
		return nil, nil, fmt.Errorf("campaign: truncate torn journal tail: %w", err)
	}
	if _, err := f.Seek(validOff, io.SeekStart); err != nil {
		f.Close()
		return nil, nil, err
	}
	j := &Journal{f: f, buf: bufio.NewWriter(f), path: path, SyncEvery: syncEvery}
	return j, st, nil
}

// ReadJournal replays a journal read-only — inspection without taking
// the append lock on the file.
func ReadJournal(path string) (*ReplayState, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("campaign: read journal: %w", err)
	}
	defer f.Close()
	st, _, err := replay(f, path)
	return st, err
}

// replay scans the journal named name, verifying each frame, and returns
// the recovered state plus the byte offset just past the last valid
// record.
func replay(f io.Reader, name string) (*ReplayState, int64, error) {
	st := &ReplayState{Points: map[int]*PointState{}}
	r := bufio.NewReader(f)
	var validOff int64
	sawHeader := false
	for {
		line, err := r.ReadBytes('\n')
		if err != nil && err != io.EOF {
			return nil, 0, fmt.Errorf("campaign: read journal: %w", err)
		}
		rec, ok := parseFrame(line)
		if !ok {
			if len(line) > 0 || err == nil {
				st.TornRecords++
			}
			break
		}
		if !sawHeader {
			if rec.T != recHeader {
				return nil, 0, fmt.Errorf("campaign: %s is not a campaign journal (first record %q)", name, rec.T)
			}
			if err := json.Unmarshal(rec.D, &st.Header); err != nil {
				return nil, 0, fmt.Errorf("campaign: journal header: %w", err)
			}
			if st.Header.Version != journalVersion {
				return nil, 0, fmt.Errorf("campaign: journal version %d, this build reads %d", st.Header.Version, journalVersion)
			}
			sawHeader = true
		} else if err := st.apply(rec); err != nil {
			return nil, 0, err
		}
		validOff += int64(len(line))
		if err == io.EOF {
			break
		}
	}
	if !sawHeader {
		return nil, 0, fmt.Errorf("campaign: %s is not a campaign journal (no valid header)", name)
	}
	return st, validOff, nil
}

// parseFrame verifies one framed line; ok is false for torn, truncated
// or corrupt frames. The checksum must be spelt exactly as the writer
// spells it (lowercase hex), so no single changed byte of a frame — an
// 'a' turned 'A' included — leaves it valid.
func parseFrame(line []byte) (envelope, bool) {
	var env envelope
	if len(line) < 11 || line[len(line)-1] != '\n' || line[8] != ' ' {
		return env, false
	}
	var want uint32
	for _, c := range line[:8] {
		switch {
		case '0' <= c && c <= '9':
			want = want<<4 | uint32(c-'0')
		case 'a' <= c && c <= 'f':
			want = want<<4 | uint32(c-'a'+10)
		default:
			return env, false
		}
	}
	body := line[9 : len(line)-1]
	if crc32.Checksum(body, crcTable) != want {
		return env, false
	}
	if json.Unmarshal(body, &env) != nil {
		return env, false
	}
	return env, true
}

// apply folds one verified record into the replay state.
func (st *ReplayState) apply(rec envelope) error {
	point := func(idx int) *PointState {
		p := st.Points[idx]
		if p == nil {
			p = &PointState{}
			st.Points[idx] = p
		}
		return p
	}
	switch rec.T {
	case recSnap:
		var r snapRecord
		if err := json.Unmarshal(rec.D, &r); err != nil {
			return fmt.Errorf("campaign: journal snap: %w", err)
		}
		snap := r.Snap
		point(r.Point).Snap = &snap
	case recPointDone:
		var r doneRecord
		if err := json.Unmarshal(rec.D, &r); err != nil {
			return fmt.Errorf("campaign: journal point_done: %w", err)
		}
		mc := r.MC.toMCResult()
		p := point(r.Point)
		p.Done = &mc
		p.Failed = false
	case recAttemptFail:
		var r failRecord
		if err := json.Unmarshal(rec.D, &r); err != nil {
			return fmt.Errorf("campaign: journal attempt_failed: %w", err)
		}
		point(r.Point).Attempts++
	case recPointError:
		var r failRecord
		if err := json.Unmarshal(rec.D, &r); err != nil {
			return fmt.Errorf("campaign: journal point_error: %w", err)
		}
		point(r.Point).Failed = true
	case recCacheHit:
		var r cacheHitRecord
		if err := json.Unmarshal(rec.D, &r); err != nil {
			return fmt.Errorf("campaign: journal cache_hit: %w", err)
		}
		st.CacheHits++
	case recSeal:
		st.Sealed = true
	default:
		// Unknown record types — from a newer writer, or a kind an
		// older writer journaled and this one no longer reads (the
		// per-strategy breaker's skip records) — are ignored, not
		// fatal; the version gate catches incompatible layouts.
	}
	return nil
}

// toRecord converts a streaming-path MCResult to its journal form.
func toRecord(mc driver.MCResult) mcRecord {
	s := mc.Summary
	return mcRecord{
		Strategy: mc.Strategy,
		Summary: summaryRecord{
			N: s.N, Mean: extFloat(s.Mean), Min: extFloat(s.Min), Max: extFloat(s.Max),
			P10: extFloat(s.P10), P25: extFloat(s.P25), P50: extFloat(s.P50),
			P75: extFloat(s.P75), P90: extFloat(s.P90), StdDev: extFloat(s.StdDev),
		},
		MeanUtilization: mc.MeanUtilization,
		MeanFailures:    mc.MeanFailures,
		RunsUsed:        mc.RunsUsed,
		CIHalfWidth:     extFloat(mc.CIHalfWidth),
		Confidence:      mc.Confidence,
		Cached:          mc.Cached,
	}
}

// toMCResult reverses toRecord.
func (r mcRecord) toMCResult() driver.MCResult {
	s := r.Summary
	return driver.MCResult{
		Strategy: r.Strategy,
		Summary: stats.Summary{
			N: s.N, Mean: float64(s.Mean), Min: float64(s.Min), Max: float64(s.Max),
			P10: float64(s.P10), P25: float64(s.P25), P50: float64(s.P50),
			P75: float64(s.P75), P90: float64(s.P90), StdDev: float64(s.StdDev),
		},
		MeanUtilization: r.MeanUtilization,
		MeanFailures:    r.MeanFailures,
		RunsUsed:        r.RunsUsed,
		CIHalfWidth:     float64(r.CIHalfWidth),
		Confidence:      r.Confidence,
		Cached:          r.Cached,
	}
}
