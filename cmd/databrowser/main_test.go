package main

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"net/http"
	"os"
	"os/exec"
	"slices"
	"strings"
	"syscall"
	"testing"
	"time"

	"repro/internal/gateway/client"
	"repro/internal/statedir"
	"repro/internal/units"
)

// TestStateDirVerbs runs list, preview and tag through run on a state
// directory whose object was migrated to the cold tier: the browser
// sees the object's logical size and its bytes, recalled from cold/.
func TestStateDirVerbs(t *testing.T) {
	state := t.TempDir()
	data := bytes.Repeat([]byte("lsdf-bytes;"), 64)
	d, err := statedir.Open(state, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	c, err := d.Client()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.PutObject(context.Background(), "/data/img.raw", data, "zebrafish", "raw"); err != nil {
		t.Fatal(err)
	}
	if err := d.Tier.Migrate("/data/img.raw"); err != nil {
		t.Fatal(err)
	}
	d.Close()

	do := func(args ...string) string {
		t.Helper()
		var out bytes.Buffer
		if err := run(&out, state, "", "", args); err != nil {
			t.Fatalf("databrowser %s: %v", strings.Join(args, " "), err)
		}
		return out.String()
	}
	list := do("list", "/data")
	if want := units.Bytes(len(data)).SI() + " "; !strings.Contains(list, want) || !strings.Contains(list, "zebrafish [raw]") {
		t.Fatalf("list of the migrated object:\n%s\nwant size %q and its dataset", list, want)
	}
	if got, want := do("preview", "/data/img.raw"), fmt.Sprintf("%q\n", data[:256]); got != want {
		t.Fatalf("preview of the migrated object: %s, want %s", got, want)
	}
	do("tag", "/data/img.raw", "analyze")
	if list := do("list", "/data"); !strings.Contains(list, "[analyze,raw]") {
		t.Fatalf("tag not recovered by the next invocation:\n%s", list)
	}

	entries, err := os.ReadDir(state)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, e := range entries {
		names = append(names, e.Name())
	}
	if want := []string{"cold", "lock", "objects", "wal"}; !slices.Equal(names, want) {
		t.Fatalf("state directory holds %v, want %v", names, want)
	}

	// A second process on the directory is turned away at once.
	d, err = statedir.Open(state, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	if err := run(&bytes.Buffer{}, state, "", "", []string{"list"}); err == nil || !strings.Contains(err.Error(), "locked") {
		t.Fatalf("run beside an open directory: %v, want a lock error", err)
	}
}

// childEnv makes the test binary run main, so a test can start the
// real command as a process and signal it.
const childEnv = "DATABROWSER_TEST_MAIN"

func TestMain(m *testing.M) {
	if os.Getenv(childEnv) != "" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// seed stores objects in a fresh state directory through its gateway
// and returns the directory, closed again.
func seed(t *testing.T, put func(context.Context, *client.Client) error) string {
	t.Helper()
	state := t.TempDir()
	d, err := statedir.Open(state, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	c, err := d.Client()
	if err != nil {
		t.Fatal(err)
	}
	if err := put(context.Background(), c); err != nil {
		t.Fatal(err)
	}
	return state
}

// TestPreviewShortObjects: preview prints at most 256 bytes, so all of
// a shorter object, and of an empty one none — the gateway answers a
// range of an empty object 416, and preview prints "".
func TestPreviewShortObjects(t *testing.T) {
	state := seed(t, func(ctx context.Context, c *client.Client) error {
		if _, err := c.PutObject(ctx, "/data/empty", nil, "p"); err != nil {
			return err
		}
		_, err := c.PutObject(ctx, "/data/short", []byte("0123456789"), "p")
		return err
	})
	for path, want := range map[string]string{"/data/empty": `""`, "/data/short": `"0123456789"`} {
		var out bytes.Buffer
		if err := run(&out, state, "", "", []string{"preview", path}); err != nil {
			t.Fatalf("preview %s: %v", path, err)
		}
		if got := strings.TrimSuffix(out.String(), "\n"); got != want {
			t.Fatalf("preview %s = %s, want %s", path, got, want)
		}
	}
}

// TestListMarksUnregistered: an object stored without a project has no
// dataset. The gateway lists it with no dataset fields, and list prints
// it as (unregistered) beside a registered one.
func TestListMarksUnregistered(t *testing.T) {
	state := seed(t, func(ctx context.Context, c *client.Client) error {
		if _, err := c.PutObject(ctx, "/data/orphan", []byte("bbb"), ""); err != nil {
			return err
		}
		if _, err := c.PutObject(ctx, "/data/reg", []byte("aa"), "zebrafish"); err != nil {
			return err
		}
		infos, err := c.List(ctx, "/data")
		if err != nil {
			return err
		}
		if len(infos) != 2 || infos[0].Path != "/data/orphan" {
			return fmt.Errorf("list = %+v", infos)
		}
		if o := infos[0]; o.DatasetID != "" || o.Project != "" || o.Tags != nil || o.Checksum != "" {
			return fmt.Errorf("unregistered entry carries dataset fields: %+v", o)
		}
		return nil
	})
	var out bytes.Buffer
	if err := run(&out, state, "", "", []string{"list", "/data"}); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	if len(lines) != 2 || !strings.Contains(lines[0], "/data/orphan") || !strings.HasSuffix(lines[0], "(unregistered)") ||
		!strings.Contains(lines[1], "zebrafish []") {
		t.Fatalf("list:\n%s", out.String())
	}
}

// TestServe drives databrowser -state D -token T serve as a process on
// a loopback address: every request needs T, and with it the browse
// and tag verbs of the /v1 API work. SIGTERM ends it cleanly.
func TestServe(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess test")
	}
	state := seed(t, func(ctx context.Context, c *client.Client) error {
		_, err := c.PutObject(ctx, "/data/img.raw", []byte("pixels"), "zebrafish", "raw")
		return err
	})

	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	serve := func(ctx context.Context, args ...string) *exec.Cmd {
		cmd := exec.CommandContext(ctx, exe, append([]string{"-state", state}, args...)...)
		cmd.Env = append(os.Environ(), childEnv+"=1")
		return cmd
	}

	cmd := serve(context.Background(), "-token", "T", "serve", "127.0.0.1:0")
	cmd.Stderr = os.Stderr
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if cmd.ProcessState == nil {
			cmd.Process.Kill()
			cmd.Wait()
		}
	})
	line, err := bufio.NewReader(stdout).ReadString('\n')
	_, base, _ := strings.Cut(strings.TrimSpace(line), " on ")
	if err != nil || !strings.HasPrefix(base, "http://") {
		t.Fatalf("serve printed %q (%v), want its URL", line, err)
	}

	for _, auth := range []string{"", "Bearer wrong"} {
		req, _ := http.NewRequest(http.MethodGet, base+"/v1/list?prefix=/data", nil)
		if auth != "" {
			req.Header.Set("Authorization", auth)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusUnauthorized {
			t.Fatalf("list with Authorization %q: %d, want 401", auth, resp.StatusCode)
		}
	}

	c, err := client.New(base, "T")
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if infos, err := c.List(ctx, "/data"); err != nil || len(infos) != 1 || infos[0].Project != "zebrafish" {
		t.Fatalf("list = %+v, %v", infos, err)
	}
	if info, err := c.Stat(ctx, "/data/img.raw"); err != nil || info.Size != 6 || info.DatasetID == "" {
		t.Fatalf("stat = %+v, %v", info, err)
	}
	if ds, err := c.Tag(ctx, "/data/img.raw", "analyze"); err != nil || !ds.HasTag("analyze") {
		t.Fatalf("tag = %+v, %v", ds, err)
	}
	if found, err := c.Find(ctx, client.FindQuery{Tags: []string{"analyze"}}); err != nil || len(found) != 1 || found[0].Path != "/data/img.raw" {
		t.Fatalf("find = %+v, %v", found, err)
	}
	if _, err := c.Untag(ctx, "/data/img.raw", "analyze"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Tag(ctx, "/data/ghost", "analyze"); !client.IsNotFound(err) {
		t.Fatalf("tag of an unregistered path: %v, want 404", err)
	}
	if ds, err := c.Dataset(ctx, "/data/img.raw"); err != nil || ds.HasTag("analyze") || !ds.HasTag("raw") {
		t.Fatalf("dataset after untag = %+v, %v", ds, err)
	}

	if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	if err := cmd.Wait(); err != nil {
		t.Fatalf("serve after SIGTERM: %v", err)
	}

	// Without -token nothing is served: the command fails at once.
	ctx, cancel := context.WithTimeout(ctx, 10*time.Second)
	defer cancel()
	out, err := serve(ctx, "serve", "127.0.0.1:0").CombinedOutput()
	if err == nil || ctx.Err() != nil || !strings.Contains(string(out), "no token") {
		t.Fatalf("serve without -token: %v\n%s\nwant a refusal", err, out)
	}
}
