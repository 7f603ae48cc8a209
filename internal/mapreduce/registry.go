package mapreduce

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math/bits"
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

// byteClass classes each byte for countWords: a field byte (ASCII, not
// space), an ASCII space, or the start of a multi-byte rune, which
// unicode.IsSpace judges once decoded.
const fieldByte, asciiSpace, runeStart = 0, 1, 2

var byteClass = func() (t [256]uint8) {
	for c := utf8.RuneSelf; c < len(t); c++ {
		t[c] = runeStart
	}
	for _, c := range "\t\n\v\f\r " {
		t[c] = asciiSpace
	}
	return t
}()

// countWords emits a one for every field of the line by bytes.Fields's
// rule, a field at a time: no [][]byte per line, no string per word. A
// table classes each byte, and a field's bytes are passed over eight at
// a time while none of them is below '!' or outside ASCII.
func countWords(_ string, line []byte, emit Emit) error {
	for start, i := -1, 0; i <= len(line); {
		n, space := 1, i == len(line) || byteClass[line[i]] == asciiSpace // a space past the end closes the last field
		if !space && byteClass[line[i]] == runeStart {
			r, size := utf8.DecodeRune(line[i:])
			n, space = size, unicode.IsSpace(r)
		}
		switch {
		case space && start >= 0:
			emit.Bytes(line[start:i], one)
			start = -1
		case !space && start < 0:
			start = i
		}
		if i += n; space {
			continue
		}
		for ; i+8 <= len(line); i += 8 {
			// Top bits flag bytes below 0x21 (a borrow) or from 0x80; none below the first is false.
			w := binary.LittleEndian.Uint64(line[i:])
			if m := (w - 0x2121212121212121 | w) & 0x8080808080808080; m != 0 {
				i += bits.TrailingZeros64(m) / 8
				break
			}
		}
		for i < len(line) && byteClass[line[i]] == fieldByte {
			i++
		}
	}
	return nil
}

// SumReducer sums integer-valued counts per key as they stream — the
// reducer (and combiner) behind the builtin counting templates. As a
// combiner, the map side adds each count to its key's total as it is
// emitted, with the same parse, instead of buffering the records.
func SumReducer() Reducer { return sumReducer{} }

type sumReducer struct{}

func (sumReducer) Reduce(key string, values *Values, emit Emit) error {
	total := 0
	for v, ok := values.Next(); ok; v, ok = values.Next() {
		n, err := count(key, v)
		if err != nil {
			return err
		}
		total += n
	}
	if err := values.Err(); err != nil {
		return err
	}
	emit(key, strconv.AppendInt(values.num[:0], int64(total), 10))
	return nil
}

// count parses one of key's counts: an integer, spaces around it
// allowed.
func count(key string, v []byte) (int, error) {
	if len(v) == 1 && v[0]-'0' < 10 {
		return int(v[0] - '0'), nil
	}
	n, err := strconv.Atoi(string(bytes.TrimSpace(v))) // Atoi keeps no reference: no allocation
	if err != nil {
		return 0, fmt.Errorf("non-numeric count for %q: %w", key, err)
	}
	return n, nil
}
