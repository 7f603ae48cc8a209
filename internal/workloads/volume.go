package workloads

import (
	"fmt"
	"strconv"
	"strings"

	"repro/internal/mapreduce"
	"repro/internal/units"
)

// The 3D visualization workload reproduces "3D biomedical data
// visualization: processing 1 TB dataset in 20 min" (slide 13): a
// voxel volume is stored slab-by-slab in the DFS, and a MapReduce job
// computes a maximum-intensity projection (MIP) — the standard
// visualization primitive for volumetric microscopy — by projecting
// each slab in a map task and folding the partial projections in the
// reducer.

// VolumeConfig describes a synthetic volume of Depth slabs, each
// Height×Width voxels of one byte.
type VolumeConfig struct {
	Width, Height, Depth int
	Seed                 int64
}

// SlabBytes returns the size of one z-slab.
func (v VolumeConfig) SlabBytes() units.Bytes {
	return units.Bytes(v.Width * v.Height)
}

// TotalBytes returns the volume's raw size.
func (v VolumeConfig) TotalBytes() units.Bytes {
	return units.Bytes(v.Width*v.Height) * units.Bytes(v.Depth)
}

// GenerateSlab returns slab z as deterministic voxel bytes.
func (v VolumeConfig) GenerateSlab(z int) []byte {
	r := NewFrameReader(int64(v.SlabBytes()), v.Seed^int64(z)<<13)
	buf := make([]byte, v.SlabBytes())
	if _, err := r.Read(buf); err != nil {
		panic("workloads: slab generation: " + err.Error())
	}
	return buf
}

// MIPMapper projects one slab (one WholeSplitInput record when the
// DFS block size equals SlabBytes) to its per-pixel maxima, emitting
// the projected plane in hex rows keyed by row index so the reduce
// phase can fold planes without holding the full volume.
func MIPMapper(cfg VolumeConfig) mapreduce.Mapper {
	return mapreduce.MapperFunc(func(_ string, value []byte, emit mapreduce.Emit) error {
		if len(value)%cfg.Width != 0 {
			return fmt.Errorf("workloads: slab of %d bytes not a multiple of width %d", len(value), cfg.Width)
		}
		rows := len(value) / cfg.Width
		if rows > cfg.Height {
			rows = cfg.Height
		}
		var key [24]byte
		for y := 0; y < rows; y++ {
			emit.Bytes(padded(append(key[:0], "row-"...), y, 5), value[y*cfg.Width:(y+1)*cfg.Width])
		}
		return nil
	})
}

// MIPReducer folds all planes' rows with voxel-wise max, emitting the
// final projection row.
var MIPReducer = mapreduce.ReducerFunc(func(key string, values [][]byte, emit mapreduce.Emit) error {
	if len(values) == 0 {
		return nil
	}
	out := make([]byte, len(values[0]))
	copy(out, values[0])
	for _, v := range values[1:] {
		if len(v) != len(out) {
			return fmt.Errorf("workloads: row length mismatch %d vs %d", len(v), len(out))
		}
		for i, b := range v {
			if b > out[i] {
				out[i] = b
			}
		}
	}
	emit(key, out)
	return nil
})

// KATRIN and climate generators round out the "additional communities
// integrated in 2011" (slide 14).

// KatrinEventLine renders one synthetic KATRIN spectrometer event:
// "ts<N>\tpixel\tenergy_eV". Events stream into ingest objects or MR
// text inputs.
func KatrinEventLine(i int, seed int64) string {
	s := uint64(seed) + uint64(i)*0x9E3779B97F4A7C15
	s ^= s >> 33
	s *= 0xFF51AFD7ED558CCD
	s ^= s >> 33
	pixel := s % 148                 // KATRIN focal-plane detector has 148 pixels
	energy := 18000 + int(s>>8%1200) // around the tritium endpoint, eV
	return fmt.Sprintf("ts%09d\t%03d\t%d", i, pixel, energy)
}

// KatrinRun renders n events, one per line.
func KatrinRun(n int, seed int64) []byte {
	var sb strings.Builder
	for i := 0; i < n; i++ {
		sb.WriteString(KatrinEventLine(i, seed))
		sb.WriteByte('\n')
	}
	return []byte(sb.String())
}

// PixelHistogramMapper counts events per detector pixel.
var PixelHistogramMapper = mapreduce.MapperFunc(func(_ string, value []byte, emit mapreduce.Emit) error {
	parts := strings.Split(string(value), "\t")
	if len(parts) != 3 {
		return fmt.Errorf("workloads: malformed katrin event %q", value)
	}
	emit("pixel-"+parts[1], one)
	return nil
})

// EnergyBandMapper counts events per 100 eV energy band.
var EnergyBandMapper = mapreduce.MapperFunc(func(_ string, value []byte, emit mapreduce.Emit) error {
	parts := strings.Split(string(value), "\t")
	if len(parts) != 3 {
		return fmt.Errorf("workloads: malformed katrin event %q", value)
	}
	ev, err := strconv.Atoi(parts[2])
	if err != nil {
		return err
	}
	emit.Bytes(padded(append(make([]byte, 0, 16), "band-"...), ev/100*100, 5), one)
	return nil
})

// ClimateGrid renders a lat×lon grid of one float per cell as CSV
// lines "lat,lon,value" — the archival-quality gridded products of
// the meteorology community (slide 14).
func ClimateGrid(lat, lon int, seed int64) []byte {
	var sb strings.Builder
	s := uint64(seed)
	for i := 0; i < lat; i++ {
		for j := 0; j < lon; j++ {
			s ^= s >> 12
			s ^= s << 25
			s ^= s >> 27
			v := float64(s%40000)/100 - 100 // -100.00 .. +300.00
			fmt.Fprintf(&sb, "%d,%d,%.2f\n", i, j, v)
		}
	}
	return []byte(sb.String())
}
