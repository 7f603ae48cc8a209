// Package statedir assembles the facility the command-line tools run
// over one state directory, and serves it to them through the gateway,
// so that a local invocation runs the same client code as one against
// a remote lsdfd.
//
// The directory holds:
//
//	lock         an exclusive flock, held while the directory is open
//	wal/         the metadata journal (metadata.Open): the catalogue's only
//	             state, placement and replica rows and their digests included
//	objects/     the hot tier
//	cold/        the cold tier
//	cache/       the read cache's disk tier
//	sites/NAME/  mirror site NAME, mounted at /site/NAME
//
// One process at a time opens a directory: two processes appending to
// one journal could corrupt it, so a second Open fails at once.
// Placement survives invocations in the journal alone: the tier is
// rebuilt from its placement rows — state, digest, modification time,
// pin — without opening an object, and replica state from the replica
// rows. An object under objects/ with no row is not served, and a site
// file the journal has no note for is not a replica.
package statedir

import (
	"crypto/rand"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"syscall"

	"repro/internal/adal"
	"repro/internal/dfs"
	"repro/internal/gateway"
	"repro/internal/gateway/client"
	"repro/internal/mapreduce"
	"repro/internal/metadata"
	"repro/internal/mrpc"
	"repro/internal/readcache"
	"repro/internal/tiering"
	"repro/internal/units"
)

// Dir is an open state directory.
type Dir struct {
	Layer *adal.Layer
	Meta  *metadata.Store
	Tier  *tiering.TierBackend
	Cache *readcache.Cache // nil when both cache budgets are 0

	root   string
	lock   *os.File
	sites  map[string]*adal.FSBackend
	hs     *http.Server
	served chan struct{} // closed when hs.Serve returns
}

// Open locks root (creating it if missing) and assembles its facility:
// the tier over objects/ and cold/, the read cache in front of it (its
// disk tier under cache/), the mirror sites under sites/ and the
// metadata store journaled under wal/.
func Open(root string, cacheMem, cacheDisk units.Bytes) (*Dir, error) {
	if err := os.MkdirAll(root, 0o755); err != nil {
		return nil, err
	}
	lock, err := os.OpenFile(filepath.Join(root, "lock"), os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return nil, err
	}
	if err := syscall.Flock(int(lock.Fd()), syscall.LOCK_EX|syscall.LOCK_NB); err != nil {
		lock.Close()
		return nil, fmt.Errorf("state directory %s is locked by another process: %w", root, err)
	}
	d := &Dir{root: root, lock: lock, sites: make(map[string]*adal.FSBackend)}
	if err := d.assemble(cacheMem, cacheDisk); err != nil {
		d.Close()
		return nil, err
	}
	return d, nil
}

func (d *Dir) assemble(cacheMem, cacheDisk units.Bytes) error {
	// A catalogue dumped by an older lsdfctl is refused rather than
	// ignored: its datasets are not in the journal, and every object
	// would list as unregistered.
	dump := filepath.Join(d.root, "metadata.json")
	if _, err := os.Stat(dump); err == nil {
		return fmt.Errorf("%s: the metadata dump is no longer read; the journal under wal/ is the catalogue (move the file away to open %s)", dump, d.root)
	}
	var err error
	if d.Meta, err = metadata.Open(metadata.Options{WALDir: filepath.Join(d.root, "wal")}); err != nil {
		return err
	}
	hot, err := d.localFS("posix", "objects")
	if err != nil {
		return err
	}
	cold, err := d.localFS("cold", "cold")
	if err != nil {
		return err
	}
	// No hot capacity: the tools migrate on demand, not by watermark.
	if d.Tier, err = tiering.New("tier", hot, cold, tiering.Config{Meta: d.Meta}); err != nil {
		return err
	}
	// An older build kept tier placement in stubs under objects/, not in
	// the journal: its directory has datasets and objects but no row, and
	// is refused by name rather than opened with every object unlisted.
	if d.Meta.Count() > 0 && d.Tier.Stats().Files == 0 {
		if infos, err := hot.List("/"); err == nil && len(infos) > 0 {
			return fmt.Errorf("%s has no placement row in the journal: %s was written by an older build, which kept tier placement in stubs; recall and copy its objects out with that build", filepath.Join(d.root, "objects", infos[0].Path), d.root)
		}
	}
	// The read cache sits in front of the tier, so a hit skips recall
	// and cold read alike; its disk tier outlives the invocation.
	var root adal.Backend = d.Tier
	if cacheMem > 0 || cacheDisk > 0 {
		var disk adal.Backend
		if cacheDisk > 0 {
			if disk, err = d.localFS("readcache", "cache"); err != nil {
				return err
			}
		}
		d.Cache = readcache.New(d.Tier, readcache.Config{Memory: cacheMem, Disk: disk, DiskBudget: cacheDisk})
		root = d.Cache
	}
	d.Layer = adal.NewLayer()
	if err := d.Layer.Mount("/", root); err != nil {
		return err
	}
	siteDirs, err := os.ReadDir(filepath.Join(d.root, "sites"))
	if err != nil && !errors.Is(err, os.ErrNotExist) {
		return err
	}
	for _, s := range siteDirs {
		if s.IsDir() {
			if err := d.MountSite(s.Name()); err != nil {
				return err
			}
		}
	}
	return nil
}

// localFS opens the object store in the directory's subdirectory sub,
// creating it if missing.
func (d *Dir) localFS(name, sub string) (*adal.FSBackend, error) {
	dir := filepath.Join(d.root, sub)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	return adal.NewLocalFS(name, dir)
}

// MountSite attaches mirror site name at /site/NAME, creating its
// directory if needed. What the site holds is the journal's to say:
// Meta's replica rows, keyed by the main copy's path.
func (d *Dir) MountSite(name string) error {
	// The name becomes both a directory under sites/ and a mount
	// prefix; reject anything that could escape either namespace.
	if name == "" || name == "." || name == ".." ||
		strings.ContainsAny(name, "/\\") || filepath.Base(name) != name {
		return fmt.Errorf("invalid site name %q", name)
	}
	if _, ok := d.sites[name]; ok {
		return nil
	}
	b, err := d.localFS("site-"+name, filepath.Join("sites", name))
	if err != nil {
		return err
	}
	if err := d.Layer.Mount("/site/"+name, b); err != nil {
		return err
	}
	d.sites[name] = b
	return nil
}

// Sites lists the mounted mirror sites, sorted.
func (d *Dir) Sites() []string {
	names := make([]string, 0, len(d.sites))
	for name := range d.sites {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// Gateway builds the gateway that serves the directory. It has one
// tenant, owning the whole namespace, with bearer token token (an empty
// one is refused) and limits that never bind; its jobs run on a
// transient analysis cluster (runJob).
func (d *Dir) Gateway(token string) (*gateway.Server, error) {
	return gateway.New(gateway.Config{
		Layer: d.Layer,
		Meta:  d.Meta,
		Tenants: []gateway.Tenant{{Name: "local", Token: token, Prefixes: []string{"/"},
			RPS: 1e9, Burst: 1 << 30, MaxInFlight: 1 << 20}},
		RunSpec: d.runJob,
	})
}

// Client serves the directory's Gateway on a loopback listener, with a
// token minted for this process, and returns a client of it. The
// listener closes with the directory; call Client at most once.
func (d *Dir) Client() (*client.Client, error) {
	raw := make([]byte, 16)
	if _, err := rand.Read(raw); err != nil {
		return nil, err
	}
	token := hex.EncodeToString(raw)
	srv, err := d.Gateway(token)
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	d.hs, d.served = &http.Server{Handler: srv}, make(chan struct{})
	go func() {
		defer close(d.served)
		_ = d.hs.Serve(ln) // ErrServerClosed once Close runs
	}()
	return client.New("http://"+ln.Addr().String(), token)
}

// runJob is the served gateway's RunSpec. It resolves the template from
// the builtin registry (the one lsdfd serves); the run it returns stages
// the inputs from the namespace onto a transient analysis cluster, runs
// the job there and copies the part files back under the output
// directory, so ls and stat see them like any stored object.
func (d *Dir) runJob(spec mrpc.JobSpec, _ string) (func() (*mapreduce.Result, error), error) {
	cfg, err := mapreduce.Builtin().Resolve(spec)
	if err != nil {
		return nil, err
	}
	return func() (*mapreduce.Result, error) {
		cluster := dfs.NewCluster(dfs.Config{BlockSize: 4 * units.MiB, Replication: 1, Seed: 1})
		for i := 0; i < 3; i++ {
			if _, err := cluster.AddDataNode(fmt.Sprintf("dn%d", i), "rack0", 4*units.GiB); err != nil {
				return nil, err
			}
		}
		for _, in := range spec.Inputs {
			if err := d.stage(cluster, in); err != nil {
				return nil, fmt.Errorf("staging %s: %w", in, err)
			}
		}
		res, err := mapreduce.Run(cluster, cfg)
		if err != nil {
			return nil, err
		}
		for _, of := range res.OutputFiles {
			r, err := cluster.Open(of, "")
			if err != nil {
				return nil, err
			}
			_, _, err = d.Layer.WriteChecksummed(of, r)
			r.Close()
			if err != nil {
				return nil, fmt.Errorf("storing %s: %w", of, err)
			}
		}
		return res, nil
	}, nil
}

// stage copies the object at path into the cluster under the same name.
func (d *Dir) stage(cluster *dfs.Cluster, path string) error {
	r, err := d.Layer.Open(path)
	if err != nil {
		return err
	}
	defer r.Close()
	w, err := cluster.Create(path, "")
	if err != nil {
		return err
	}
	_, err = io.Copy(w, r)
	if cerr := w.Close(); err == nil {
		err = cerr
	}
	return err
}

// Close stops the served gateway, closes the cache, the tier and the
// journal, and releases the lock.
func (d *Dir) Close() {
	if d.hs != nil {
		d.hs.Close()
		<-d.served
	}
	if d.Cache != nil {
		d.Cache.Close()
	}
	if d.Tier != nil {
		d.Tier.Close()
	}
	if d.Meta != nil {
		d.Meta.Close()
	}
	d.lock.Close() // releases the flock
}
