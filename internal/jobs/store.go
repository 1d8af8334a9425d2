package jobs

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"vaq/internal/checkpoint"
)

// store persists one file per job under dir, written atomically via
// checkpoint.AtomicWriteFile, so an accepted job survives any crash:
// the file either holds the previous consistent state or the new one.
// Each file carries its own key (the job id)
// inside an envelope and is verified on load — a renamed, truncated or
// foreign file is quarantined (renamed aside with a .corrupt suffix),
// never fatal and never silently trusted.
//
// A nil *store is the in-memory mode: every method is a no-op, jobs
// live only as long as the process.
type store struct {
	dir string
}

// storeEnvelope is the on-disk shape: the id inside the file must match
// the id the filename claims.
type storeEnvelope struct {
	ID  string          `json:"id"`
	Job json.RawMessage `json:"job"`
}

// persisted is the subset of job state that survives a restart. Runtime
// scheduling fields (enqueue/ready times) deliberately do not: a
// recovered job re-enters the queue fresh.
type persisted struct {
	ID            string          `json:"id"`
	Tenant        string          `json:"tenant"`
	Class         Class           `json:"class"`
	Kind          Kind            `json:"kind"`
	Request       json.RawMessage `json:"request"`
	State         State           `json:"state"`
	Attempt       int             `json:"attempt"`
	Interruptions int             `json:"interruptions"`
	Seq           uint64          `json:"seq"`
	Failure       *Failure        `json:"failure,omitempty"`
	// Result holds the successful attempt's verbatim response bytes.
	// []byte marshals as base64, which round-trips byte-exactly —
	// embedding as raw JSON would re-compact and break the
	// byte-identity contract of the result endpoint.
	Result        []byte `json:"result,omitempty"`
	CancelRequest bool   `json:"cancel_requested,omitempty"`
}

func openStore(dir string) (*store, error) {
	if dir == "" {
		return nil, nil
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("jobs: store: %w", err)
	}
	return &store{dir: dir}, nil
}

func (s *store) path(id string) string {
	return filepath.Join(s.dir, "job-"+id+".json")
}

// save persists j's durable state atomically. A nil store is a no-op.
func (s *store) save(j *job) error {
	if s == nil {
		return nil
	}
	p := persisted{
		ID:            j.ID,
		Tenant:        j.Tenant,
		Class:         j.Class,
		Kind:          j.Kind,
		Request:       j.Request,
		State:         j.State,
		Attempt:       j.Attempt,
		Interruptions: j.Interruptions,
		Seq:           j.Seq,
		Failure:       j.Failure,
		Result:        j.Result,
		CancelRequest: j.CancelRequest,
	}
	raw, err := json.Marshal(p)
	if err != nil {
		return fmt.Errorf("jobs: encode %s: %w", j.ID, err)
	}
	data, err := json.Marshal(storeEnvelope{ID: j.ID, Job: raw})
	if err != nil {
		return fmt.Errorf("jobs: encode %s: %w", j.ID, err)
	}
	if err := checkpoint.AtomicWriteFile(s.path(j.ID), data); err != nil {
		return fmt.Errorf("jobs: write %s: %w", j.ID, err)
	}
	return nil
}

// remove deletes j's file (retention eviction). A nil store is a no-op.
func (s *store) remove(id string) {
	if s == nil {
		return
	}
	os.Remove(s.path(id))
}

// load scans the store directory and returns every decodable job,
// ordered by admission sequence. Unreadable or corrupt files are
// quarantined: renamed to <name>.corrupt so they stop being re-parsed
// at every boot, counted, and skipped — a damaged entry must never take
// the daemon down or shadow a healthy queue.
func (s *store) load() (jobs []*job, corrupt int, err error) {
	if s == nil {
		return nil, 0, nil
	}
	entries, err := os.ReadDir(s.dir)
	if err != nil {
		return nil, 0, fmt.Errorf("jobs: scan store: %w", err)
	}
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasPrefix(name, "job-") || !strings.HasSuffix(name, ".json") {
			continue
		}
		id := strings.TrimSuffix(strings.TrimPrefix(name, "job-"), ".json")
		path := filepath.Join(s.dir, name)
		j, jerr := readJob(path, id)
		if jerr != nil {
			corrupt++
			os.Rename(path, path+".corrupt")
			continue
		}
		jobs = append(jobs, j)
	}
	sort.Slice(jobs, func(a, b int) bool { return jobs[a].Seq < jobs[b].Seq })
	return jobs, corrupt, nil
}

func readJob(path, wantID string) (*job, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var env storeEnvelope
	if err := json.Unmarshal(data, &env); err != nil {
		return nil, fmt.Errorf("envelope: %w", err)
	}
	if env.ID != wantID {
		return nil, fmt.Errorf("envelope id %q does not match file %q", env.ID, wantID)
	}
	var p persisted
	if err := json.Unmarshal(env.Job, &p); err != nil {
		return nil, fmt.Errorf("job body: %w", err)
	}
	if p.ID != wantID || !ValidKind(p.Kind) || !ValidClass(p.Class) {
		return nil, fmt.Errorf("job body inconsistent (id %q kind %q class %q)", p.ID, p.Kind, p.Class)
	}
	return &job{
		Spec:          Spec{Tenant: p.Tenant, Class: p.Class, Kind: p.Kind, Request: p.Request},
		ID:            p.ID,
		State:         p.State,
		Attempt:       p.Attempt,
		Interruptions: p.Interruptions,
		Seq:           p.Seq,
		Failure:       p.Failure,
		Result:        p.Result,
		CancelRequest: p.CancelRequest,
	}, nil
}
