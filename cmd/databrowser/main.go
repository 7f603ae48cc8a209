// Command databrowser is the end-user DataBrowser (slide 9): list and
// inspect data joined with its metadata, preview objects, tag datasets
// — or serve the JSON web API the paper announces as the upcoming web
// GUI.
//
//	databrowser -state /tmp/lsdf list /data
//	databrowser -state /tmp/lsdf preview /data/img1.raw
//	databrowser -state /tmp/lsdf tag /data/img1.raw analyze
//	databrowser -state /tmp/lsdf serve :8080
//
// list, preview and tag are gateway client calls: with -server against
// a live lsdfd, as an authenticated tenant; with -state against a
// gateway this process serves on loopback over the state directory
// lsdfctl uses (internal/statedir; one process at a time). preview is
// a range read, so only the first bytes cross the wire, and a migrated
// object's bytes are recalled from the cold tier:
//
//	databrowser -server http://lsdf.example:7420 -token SECRET list /data
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"strings"

	"repro/internal/databrowser"
	"repro/internal/gateway/client"
	"repro/internal/statedir"
)

func main() {
	state := flag.String("state", "", "state directory shared with lsdfctl")
	server := flag.String("server", "", "lsdfd gateway URL: browse remotely instead of a local -state")
	token := flag.String("token", "", "bearer token for -server")
	flag.Parse()
	if (*state == "" && *server == "") || flag.NArg() == 0 {
		fmt.Fprintln(os.Stderr, `usage: databrowser -state DIR COMMAND [args]
       databrowser -server URL -token SECRET COMMAND [args]

commands:
  list PREFIX       browse objects joined with metadata
  preview PATH      print the first 256 bytes of an object
  tag PATH TAG      tag the dataset at PATH
  serve ADDR        serve the JSON web API (-state only;
                    GET /list, /stat, /dataset, /find; POST /tag)`)
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
				return fmt.Errorf("serve: need ADDR (e.g. :8080)")
			}
			fmt.Fprintf(w, "databrowser web API on %s\n", rest[0])
			return http.ListenAndServe(rest[0], databrowser.New(d.Layer, d.Meta).Handler())
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
		rc, err := c.GetRange(ctx, rest[0], 0, 256)
		if err != nil {
			return err
		}
		defer rc.Close()
		head, err := io.ReadAll(rc)
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
