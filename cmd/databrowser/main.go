// Command databrowser is the end-user DataBrowser (slide 9): list and
// inspect data joined with its metadata, preview objects, tag datasets
// — or serve the facility's authenticated /v1 API, which a web GUI
// would call.
//
//	databrowser -state /tmp/lsdf list /data
//	databrowser -state /tmp/lsdf preview /data/img1.raw
//	databrowser -state /tmp/lsdf tag /data/img1.raw analyze
//	databrowser -state /tmp/lsdf -token SECRET serve 127.0.0.1:8080
//
// Every verb is a gateway client call: with -server against a live
// lsdfd, as an authenticated tenant; with -state against a gateway this
// process serves on loopback over the state directory lsdfctl uses
// (internal/statedir; one process at a time). preview is a range read,
// so only the first bytes cross the wire, and a migrated object's bytes
// are recalled from the cold tier:
//
//	databrowser -server http://lsdf.example:7420 -token SECRET list /data
//
// serve is that same gateway on ADDR, with one tenant owning the whole
// namespace whose bearer token is -token: GET /v1/list, /v1/stat/PATH,
// /v1/dataset, /v1/datasets, POST /v1/datasets/tag and untag, and the
// rest of lsdfd's API. It holds the directory until SIGTERM or
// interrupt, then drains like lsdfd.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"strings"
	"syscall"
	"time"

	"repro/internal/gateway/client"
	"repro/internal/statedir"
)

func main() {
	state := flag.String("state", "", "state directory shared with lsdfctl")
	server := flag.String("server", "", "lsdfd gateway URL: browse remotely instead of a local -state")
	token := flag.String("token", "", "bearer token: presented to -server, or required by serve")
	flag.Parse()
	if (*state == "" && *server == "") || flag.NArg() == 0 {
		fmt.Fprintln(os.Stderr, `usage: databrowser -state DIR COMMAND [args]
       databrowser -server URL -token SECRET COMMAND [args]
       databrowser -state DIR -token SECRET serve ADDR

commands:
  list PREFIX       browse objects joined with metadata
  preview PATH      print the first 256 bytes of an object
  tag PATH TAG      tag the dataset at PATH
  serve ADDR        serve the gateway's /v1 API over DIR on ADDR;
                    every request needs "Authorization: Bearer SECRET"`)
		os.Exit(2)
	}
	if err := run(os.Stdout, *state, *server, *token, flag.Args()); err != nil {
		fmt.Fprintln(os.Stderr, "databrowser:", err)
		os.Exit(1)
	}
}

// run executes one command, printing its output to w.
func run(w io.Writer, state, server, token string, args []string) error {
	cmd, rest := args[0], args[1:]
	var c *client.Client
	if server != "" {
		if cmd == "serve" {
			return fmt.Errorf("serve needs -state: run it on the facility host, or point clients at lsdfd itself")
		}
		var err error
		if c, err = client.New(server, token); err != nil {
			return err
		}
	} else {
		d, err := statedir.Open(state, 0, 0)
		if err != nil {
			return err
		}
		defer d.Close()
		if cmd == "serve" {
			if len(rest) != 1 {
				return fmt.Errorf("serve: need ADDR (e.g. 127.0.0.1:8080)")
			}
			return serve(w, d, token, rest[0])
		}
		if c, err = d.Client(); err != nil {
			return err
		}
	}
	ctx := context.Background()
	switch cmd {
	case "list":
		prefix := "/data"
		if len(rest) > 0 {
			prefix = rest[0]
		}
		infos, err := c.List(ctx, prefix)
		if err != nil {
			return err
		}
		for _, info := range infos {
			meta := "(unregistered)"
			if info.DatasetID != "" {
				meta = fmt.Sprintf("%s %s [%s]", info.DatasetID, info.Project, strings.Join(info.Tags, ","))
			}
			fmt.Fprintf(w, "%-10s  %-40s  %s\n", info.Size.SI(), info.Path, meta)
		}
		return nil
	case "preview":
		if len(rest) != 1 {
			return fmt.Errorf("preview: need PATH")
		}
		head, err := preview(ctx, c, rest[0])
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "%q\n", head)
		return nil
	case "tag":
		if len(rest) != 2 {
			return fmt.Errorf("tag: need PATH TAG")
		}
		_, err := c.Tag(ctx, rest[0], rest[1])
		return err
	}
	return fmt.Errorf("unknown command %q", cmd)
}

// preview returns the first 256 bytes of the object at path.
func preview(ctx context.Context, c *client.Client, path string) ([]byte, error) {
	rc, err := c.GetRange(ctx, path, 0, 256)
	var ae *client.APIError
	if errors.As(err, &ae) && ae.Status == http.StatusRequestedRangeNotSatisfiable {
		return nil, nil // a range from offset 0 is unsatisfiable only on an empty object
	}
	if err != nil {
		return nil, err
	}
	defer rc.Close()
	return io.ReadAll(rc)
}

// serve serves d's gateway on addr, with token as its one tenant's
// bearer token, until SIGTERM or interrupt; then it drains like lsdfd.
func serve(w io.Writer, d *statedir.Dir, token, addr string) error {
	srv, err := d.Gateway(token)
	if err != nil {
		return err
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "databrowser: gateway /v1 API on http://%s\n", ln.Addr())
	return srv.ServeDraining(&http.Server{ReadHeaderTimeout: 10 * time.Second}, ln, 10*time.Second, syscall.SIGTERM, os.Interrupt)
}
