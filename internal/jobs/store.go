package jobs

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strings"

	"vaq/internal/checkpoint"
)

// The durable store is one checkpoint.Dir record per job, named
// job-<id>.json and holding the job inside an envelope that repeats its
// id: a renamed, truncated or foreign file fails the check on load and
// is quarantined by the Dir. The job struct is the record: its exported
// fields are what survives a restart.

// envelope is the on-disk shape: the id inside the file must match the
// id the filename claims.
type envelope struct {
	ID  string `json:"id"`
	Job *job   `json:"job"`
}

func recordName(id string) string { return "job-" + id + ".json" }

// save persists j's durable state atomically (a no-op in memory).
func save(dir checkpoint.Dir, j *job) error {
	err := dir.Put(recordName(j.ID), func(w io.Writer) error {
		data, err := json.Marshal(envelope{ID: j.ID, Job: j})
		if err == nil {
			_, err = w.Write(data)
		}
		return err
	})
	if err != nil {
		return fmt.Errorf("jobs: persist %s: %w", j.ID, err)
	}
	return nil
}

// loadJobs returns every job record in dir that decodes and checks out,
// ordered by admission sequence, and how many records were quarantined.
func loadJobs(dir checkpoint.Dir) (jobs []*job, corrupt int, err error) {
	corrupt, err = dir.Load(recordName("*"), func(name string, data []byte) error {
		j, err := decodeJob(strings.TrimSuffix(strings.TrimPrefix(name, "job-"), ".json"), data)
		if err == nil {
			jobs = append(jobs, j)
		}
		return err
	})
	if err != nil {
		return nil, 0, fmt.Errorf("jobs: scan store: %w", err)
	}
	sort.Slice(jobs, func(a, b int) bool { return jobs[a].Seq < jobs[b].Seq })
	return jobs, corrupt, nil
}

func decodeJob(wantID string, data []byte) (*job, error) {
	var env envelope
	if err := json.Unmarshal(data, &env); err != nil {
		return nil, fmt.Errorf("envelope: %w", err)
	}
	j := env.Job
	if env.ID != wantID || j == nil || j.ID != wantID {
		return nil, fmt.Errorf("envelope does not hold job %q", wantID)
	}
	if !ValidKind(j.Kind) || !ValidClass(j.Class) || !j.State.known() {
		return nil, fmt.Errorf("job body inconsistent (kind %q class %q state %q)", j.Kind, j.Class, j.State)
	}
	return j, nil
}
