package mapreduce

import (
	"bytes"
	"errors"
	"fmt"
	"strconv"
	"unicode"
	"unicode/utf8"

	"repro/internal/mrpc"
	"repro/internal/units"
)

// ErrUnknownTemplate is returned by Resolve for job names absent from
// the registry; callers (the gateway) map it to a 404.
var ErrUnknownTemplate = errors.New("mapreduce: no job template")

// Map and reduce functions are Go code — they cannot cross the wire.
// What crosses the wire (gateway submissions, master→worker
// assignments) is a job *name* resolved against a registry of
// templates, Hadoop-streaming style: the operator registers the
// community's analysis programs once on every process that executes
// tasks, and experiments submit (name, inputs, output, args) tuples.

// JobBuilder turns one wire-level job spec into a runnable config.
// The framework fills in Name/Inputs/OutputDir/NumReducers/
// ShuffleMemory from the spec afterwards; builders set the functions
// and job-shape knobs (format, map-only, combiner, locality).
type JobBuilder func(spec mrpc.JobSpec) (Config, error)

// Registry maps template names to builders. Masters resolve specs at
// submission (validation, shape); workers resolve the same spec per
// attempt, so both sides must share a registry.
type Registry map[string]JobBuilder

// Resolve builds the full config for a spec: the template's functions
// plus the submission's parameters.
func (r Registry) Resolve(spec mrpc.JobSpec) (Config, error) {
	b, ok := r[spec.Name]
	if !ok {
		return Config{}, fmt.Errorf("%w %q", ErrUnknownTemplate, spec.Name)
	}
	cfg, err := b(spec)
	if err != nil {
		return Config{}, err
	}
	cfg.Name = spec.Name
	cfg.Inputs = spec.Inputs
	cfg.OutputDir = spec.OutputDir
	if spec.NumReducers > 0 {
		cfg.NumReducers = spec.NumReducers
	}
	if spec.ShuffleMemory != 0 {
		cfg.ShuffleMemory = units.Bytes(spec.ShuffleMemory)
	}
	return cfg.withDefaults(), nil
}

// Builtin is the default template registry: the generic text analyses
// every facility offers. Facility-specific jobs (k-mer counting, MIP
// visualization) are registered alongside by the operator.
func Builtin() Registry {
	counting := func(m MapperFunc) JobBuilder {
		return func(mrpc.JobSpec) (Config, error) {
			return Config{Mapper: m, Combiner: SumReducer(), Reducer: SumReducer(), Format: TextInput, Locality: true}, nil
		}
	}
	return Registry{
		"wordcount": counting(countWords),
		"linecount": counting(func(_ string, _ []byte, emit Emit) error {
			emit("lines", one)
			return nil
		}),
		"grep": func(spec mrpc.JobSpec) (Config, error) {
			pattern := spec.Args["pattern"]
			if pattern == "" {
				return Config{}, fmt.Errorf("grep needs args.pattern")
			}
			pat := []byte(pattern)
			return Config{
				Mapper: MapperFunc(func(key string, value []byte, emit Emit) error {
					if bytes.Contains(value, pat) {
						emit(key, value)
					}
					return nil
				}),
				Format:   TextInput,
				MapOnly:  true,
				Locality: true,
			}, nil
		},
	}
}

var one = []byte("1")

// countWords emits a one for every field of the line by bytes.Fields's
// rule, a field at a time: no [][]byte per line, no string per word.
func countWords(_ string, line []byte, emit Emit) error {
	for start, i := -1, 0; i <= len(line); {
		c, n := byte(' '), 1 // a space past the end closes the last field
		if i < len(line) {
			c = line[i]
		}
		space := c == ' ' || c-'\t' < 5
		if c >= utf8.RuneSelf {
			r, size := utf8.DecodeRune(line[i:])
			space, n = unicode.IsSpace(r), size
		}
		if space && start >= 0 {
			emit.Bytes(line[start:i], one)
			start = -1
		} else if !space && start < 0 {
			start = i
		}
		i += n
	}
	return nil
}

// SumReducer sums integer-valued counts per key — the reducer (and
// combiner) behind the builtin counting templates.
func SumReducer() Reducer {
	return ReducerFunc(func(key string, values [][]byte, emit Emit) error {
		total := 0
		for _, v := range values {
			n, err := strconv.Atoi(string(bytes.TrimSpace(v))) // Atoi keeps no reference: no allocation
			if err != nil {
				return fmt.Errorf("non-numeric count for %q: %w", key, err)
			}
			total += n
		}
		var buf [20]byte
		emit(key, strconv.AppendInt(buf[:0], int64(total), 10))
		return nil
	})
}
