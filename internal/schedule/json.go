package schedule

// JSON serialization of schedules: the interchange format a downstream
// deployment would consume (which replica of which task runs where and
// when, and which transfers feed it). The graph and platform are referenced
// by summary only — they are inputs, not outputs, of the scheduler.

import (
	"encoding/json"
	"fmt"

	"streamsched/internal/dag"
	"streamsched/internal/platform"
)

// jsonSchedule is the serialized form.
type jsonSchedule struct {
	Algorithm string        `json:"algorithm"`
	Eps       int           `json:"eps"`
	Period    float64       `json:"period"`
	Graph     string        `json:"graph"`
	Tasks     int           `json:"tasks"`
	Procs     int           `json:"procs"`
	Stages    int           `json:"stages"`
	Latency   float64       `json:"latencyBound"`
	Replicas  []jsonReplica `json:"replicas"`
}

type jsonReplica struct {
	Task   int        `json:"task"`
	Name   string     `json:"name"`
	Copy   int        `json:"copy"`
	Proc   int        `json:"proc"`
	Start  float64    `json:"start"`
	Finish float64    `json:"finish"`
	Stage  int        `json:"stage"`
	In     []jsonComm `json:"in,omitempty"`
}

type jsonComm struct {
	FromTask int     `json:"fromTask"`
	FromCopy int     `json:"fromCopy"`
	Volume   float64 `json:"volume"`
	Start    float64 `json:"start"`
	Finish   float64 `json:"finish"`
}

// MarshalJSON serializes the schedule.
func (s *Schedule) MarshalJSON() ([]byte, error) {
	stages := s.StageNumbers()
	out := jsonSchedule{
		Algorithm: s.Algorithm,
		Eps:       s.Eps,
		Period:    s.Period,
		Graph:     s.G.Name(),
		Tasks:     s.G.NumTasks(),
		Procs:     s.P.NumProcs(),
		Stages:    s.Stages(),
		Latency:   s.LatencyBound(),
	}
	for _, r := range s.All() {
		jr := jsonReplica{
			Task:   int(r.Ref.Task),
			Name:   s.G.Task(r.Ref.Task).Name,
			Copy:   r.Ref.Copy,
			Proc:   int(r.Proc),
			Start:  r.Start,
			Finish: r.Finish,
			Stage:  stages[r.Ref],
		}
		for _, c := range r.In {
			jr.In = append(jr.In, jsonComm{
				FromTask: int(c.From.Task),
				FromCopy: c.From.Copy,
				Volume:   c.Volume,
				Start:    c.Start,
				Finish:   c.Finish,
			})
		}
		out.Replicas = append(out.Replicas, jr)
	}
	return json.MarshalIndent(out, "", "  ")
}

// LoadJSON reconstructs a schedule previously serialized with MarshalJSON,
// re-binding it to the given graph and platform (which must match the
// serialized dimensions). The document may come from outside the program:
// every task, copy and processor index in it is range-checked, so a
// malformed schedule is an error, never a panic.
func LoadJSON(data []byte, g *dag.Graph, p *platform.Platform) (*Schedule, error) {
	var in jsonSchedule
	if err := json.Unmarshal(data, &in); err != nil {
		return nil, fmt.Errorf("schedule: %w", err)
	}
	if in.Tasks != g.NumTasks() {
		return nil, fmt.Errorf("schedule: serialized for %d tasks, graph has %d", in.Tasks, g.NumTasks())
	}
	if in.Procs != p.NumProcs() {
		return nil, fmt.Errorf("schedule: serialized for %d processors, platform has %d", in.Procs, p.NumProcs())
	}
	if in.Period <= 0 {
		return nil, fmt.Errorf("schedule: non-positive period %v", in.Period)
	}
	if in.Eps < 0 {
		return nil, fmt.Errorf("schedule: negative eps %d", in.Eps)
	}
	s := New(g, p, in.Eps, in.Period, in.Algorithm)
	for _, jr := range in.Replicas {
		if err := checkRef(jr.Task, jr.Copy, in); err != nil {
			return nil, fmt.Errorf("schedule: replica: %w", err)
		}
		if jr.Proc < 0 || jr.Proc >= in.Procs {
			return nil, fmt.Errorf("schedule: replica of task %d: proc %d out of range [0,%d)", jr.Task, jr.Proc, in.Procs)
		}
		for _, c := range jr.In {
			if err := checkRef(c.FromTask, c.FromCopy, in); err != nil {
				return nil, fmt.Errorf("schedule: comm into task %d: %w", jr.Task, err)
			}
		}
		rep := &Replica{
			Ref:    Ref{Task: dag.TaskID(jr.Task), Copy: jr.Copy},
			Proc:   platform.ProcID(jr.Proc),
			Start:  jr.Start,
			Finish: jr.Finish,
		}
		for _, c := range jr.In {
			rep.In = append(rep.In, Comm{
				From:   Ref{Task: dag.TaskID(c.FromTask), Copy: c.FromCopy},
				Volume: c.Volume,
				Start:  c.Start,
				Finish: c.Finish,
			})
		}
		s.AddReplica(rep)
	}
	return s, nil
}

// checkRef range-checks a serialized (task, copy) reference against the
// document's task count and replication degree.
func checkRef(task, cp int, in jsonSchedule) error {
	if task < 0 || task >= in.Tasks {
		return fmt.Errorf("task %d out of range [0,%d)", task, in.Tasks)
	}
	if cp < 0 || cp > in.Eps {
		return fmt.Errorf("copy %d out of range [0,%d]", cp, in.Eps)
	}
	return nil
}
