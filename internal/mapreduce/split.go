package mapreduce

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"strconv"
	"sync"

	"repro/internal/dfs"
	"repro/internal/mrpc"
)

// split is one schedulable unit of input: a block-aligned byte range
// of one file, annotated with the nodes holding a replica.
type split struct {
	file      string
	offset    int64
	length    int64
	locations []string
}

// buildSplits produces one split per block of each input, the Hadoop
// default. Empty files contribute no splits.
func buildSplits(cluster *dfs.Cluster, inputs []string) ([]split, error) {
	var out []split
	for _, name := range inputs {
		info, err := cluster.Stat(name)
		if err != nil {
			return nil, err
		}
		locs, err := cluster.BlockLocations(name)
		if err != nil {
			return nil, err
		}
		block, size := int64(cluster.Config().BlockSize), int64(info.Size)
		for i, off := 0, int64(0); off < size; i, off = i+1, off+block {
			s := split{file: name, offset: off, length: min(block, size-off)}
			if i < len(locs) {
				s.locations = locs[i]
			}
			out = append(out, s)
		}
	}
	return out, nil
}

// ref converts a split to its wire form.
func (s split) ref() *mrpc.SplitRef {
	return &mrpc.SplitRef{File: s.file, Offset: s.offset, Length: s.length}
}

// fromRef rebuilds a schedulable split from its wire form.
func fromRef(r *mrpc.SplitRef) split {
	return split{file: r.File, offset: r.Offset, length: r.Length}
}

// readRecords feeds a split's records to fn according to the format.
// node is the reading task's node, passed to the store as locality hint.
func readRecords(store Store, s split, format InputFormat, node string,
	fn func(key string, value []byte) error) error {
	switch format {
	case WholeSplitInput:
		r, err := store.Open(s.file, node)
		if err != nil {
			return err
		}
		defer r.Close()
		buf := make([]byte, s.length)
		if _, err := r.ReadAt(buf, s.offset); err != nil && err != io.EOF {
			return err
		}
		key := fmt.Sprintf("%s:%d", s.file, s.offset)
		return fn(key, buf)
	case TextInput:
		return readTextRecords(store, s, node, fn)
	}
	return fmt.Errorf("mapreduce: unknown input format %d", format)
}

// lineReaders are the text splits' read buffers, kept across attempts.
var lineReaders = sync.Pool{New: func() any { return bufio.NewReaderSize(nil, 64*1024) }}

// readTextRecords implements the TextInputFormat boundary convention:
// a split that does not start at offset zero discards the first
// (partial) line; every split reads its final line to completion even
// when that crosses into the next block.
func readTextRecords(store Store, s split, node string,
	fn func(key string, value []byte) error) error {
	r, err := store.Open(s.file, node)
	if err != nil {
		return err
	}
	defer r.Close()
	if _, err := r.Seek(s.offset, io.SeekStart); err != nil {
		return err
	}
	br := lineReaders.Get().(*bufio.Reader)
	defer func() { br.Reset(nil); lineReaders.Put(br) }()
	br.Reset(r)
	pos := s.offset
	if s.offset > 0 {
		skipped, err := br.ReadBytes('\n')
		pos += int64(len(skipped))
		if err == io.EOF {
			return nil // split began inside the file's final line
		}
		if err != nil {
			return err
		}
	}
	// A line starting exactly at end belongs to THIS split (the next
	// split unconditionally discards its first line), hence <=, the
	// same convention as Hadoop's LineRecordReader.
	end := s.offset + s.length
	var key []byte // the record key, formatted in place
	for pos <= end {
		// The line is a window of the reader's buffer — the mapper's
		// contract — unless it is longer than the buffer.
		line, err := br.ReadSlice('\n')
		if err == bufio.ErrBufferFull {
			head := bytes.Clone(line)
			line, err = br.ReadBytes('\n')
			line = append(head, line...)
		}
		if len(line) == 0 && err == io.EOF {
			return nil
		}
		key = strconv.AppendInt(key[:0], pos, 10)
		pos += int64(len(line))
		// Trim the newline; tolerate a final unterminated line.
		line = bytes.TrimSuffix(line, []byte{'\n'})
		if ferr := fn(bytesString(key), line); ferr != nil {
			return ferr
		}
		if err == io.EOF {
			return nil
		}
		if err != nil {
			return err
		}
	}
	return nil
}
