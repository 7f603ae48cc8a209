package mapreduce

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"os"
	"strings"
	"sync"
	"testing"

	"repro/internal/dfs"
)

// testdata/golden.json holds the SHA-256 of every part file of a fixed
// set of deterministic job shapes. The digests were recorded from the
// single-process engine of commit 3107d31, the last tree that had one:
// they are what "distributed ≡ single-process, byte for byte" is
// checked against now that Run is the master without sockets. There is
// no update switch — a digest that changes is a change of the job's
// output bytes; a new shape's digests are printed by its first failure.
var golden = sync.OnceValue(func() map[string]map[string]string {
	data, err := os.ReadFile("testdata/golden.json")
	if err != nil {
		panic(err)
	}
	var g map[string]map[string]string
	if err := json.Unmarshal(data, &g); err != nil {
		panic(err)
	}
	return g
})

// checkGolden compares a finished job's part files, by base name,
// against the digests recorded for shape.
func checkGolden(t testing.TB, shape string, c *dfs.Cluster, files []string) {
	t.Helper()
	parts := make(map[string][]byte, len(files))
	for _, f := range files {
		data, err := c.ReadFile(f, "")
		if err != nil {
			t.Fatalf("%s: read %s: %v", shape, f, err)
		}
		parts[f[strings.LastIndex(f, "/")+1:]] = data
	}
	checkGoldenBytes(t, shape, parts)
}

func checkGoldenBytes(t testing.TB, shape string, parts map[string][]byte) {
	t.Helper()
	got := make(map[string]string, len(parts))
	for name, data := range parts {
		sum := sha256.Sum256(data)
		got[name] = hex.EncodeToString(sum[:])
	}
	want := golden()[shape]
	same := len(got) == len(want)
	for name, d := range want {
		same = same && got[name] == d
	}
	if !same {
		js, _ := json.Marshal(got)
		t.Errorf("golden %q: output differs from the recorded engine's\n got: %s\nwant: %v", shape, js, want)
	}
}
