// Command txn is a small interactive/batch transactional shell over the
// library: it runs an in-process store and status oracle (or connects to a
// remote oracle-server) and executes line-oriented commands, useful for
// poking at isolation behaviour by hand.
//
// Commands (one per line):
//
//	begin            start a transaction (prints its id)
//	get <t> <key>    read key in transaction t
//	put <t> <k> <v>  write k=v in transaction t
//	del <t> <key>    delete key in transaction t
//	scan <t> <a> <b> scan [a,b) in transaction t
//	commit <t>       commit transaction t
//	abort <t>        abort transaction t
//	stats            print oracle counters
//	quit
//
// Example demonstrating write skew under SI (run with -engine si):
//
//	begin         -> t1
//	begin         -> t2
//	get 1 x ; get 1 y ; get 2 x ; get 2 y
//	put 1 x 0 ; put 2 y 0
//	commit 1 ; commit 2    # both commit under SI; t2 aborts under WSI
package main

import (
	"bufio"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"repro/internal/core"
	"repro/internal/kvstore"
	"repro/internal/netsrv"
	"repro/internal/txn"
)

func main() {
	var (
		engine = flag.String("engine", "wsi", "isolation engine: wsi or si (in-process mode)")
		remote = flag.String("connect", "", "connect to a remote oracle-server instead of in-process")
	)
	flag.Parse()

	var client *txn.Client
	var statsFn func() string
	switch {
	case *remote != "":
		oracleClient, err := netsrv.Dial(*remote)
		if err != nil {
			fmt.Fprintf(os.Stderr, "txn: %v\n", err)
			os.Exit(1)
		}
		defer oracleClient.Close()
		store := kvstore.New(kvstore.Config{})
		client, err = txn.NewClient(store, oracleClient, txn.Config{})
		if err != nil {
			fmt.Fprintf(os.Stderr, "txn: %v\n", err)
			os.Exit(1)
		}
		statsFn = func() string {
			st, err := oracleClient.Stats()
			if err != nil {
				return fmt.Sprintf("error: %v", err)
			}
			return fmt.Sprintf("%+v", st)
		}
	default:
		eng := core.WSI
		if *engine == "si" {
			eng = core.SI
		}
		sys, err := core.New(core.Options{Engine: eng})
		if err != nil {
			fmt.Fprintf(os.Stderr, "txn: %v\n", err)
			os.Exit(1)
		}
		defer sys.Close()
		client = sys.Client
		statsFn = func() string { return fmt.Sprintf("%+v", sys.Stats()) }
	}

	txns := make(map[int]*txn.Txn)
	next := 1
	sc := bufio.NewScanner(os.Stdin)
	out := bufio.NewWriter(os.Stdout)
	defer out.Flush()

	for {
		out.Flush()
		if !sc.Scan() {
			return
		}
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		cmd := fields[0]
		arg := func(i int) string {
			if i < len(fields) {
				return fields[i]
			}
			return ""
		}
		lookup := func(i int) *txn.Txn {
			id, err := strconv.Atoi(arg(i))
			if err != nil {
				fmt.Fprintf(out, "error: bad transaction id %q\n", arg(i))
				return nil
			}
			t, ok := txns[id]
			if !ok {
				fmt.Fprintf(out, "error: no transaction %d\n", id)
				return nil
			}
			return t
		}
		switch cmd {
		case "quit", "exit":
			return
		case "begin":
			t, err := client.Begin()
			if err != nil {
				fmt.Fprintf(out, "error: %v\n", err)
				continue
			}
			txns[next] = t
			fmt.Fprintf(out, "t%d (start ts %d)\n", next, t.StartTS())
			next++
		case "get":
			if t := lookup(1); t != nil {
				v, ok, err := t.Get(arg(2))
				switch {
				case err != nil:
					fmt.Fprintf(out, "error: %v\n", err)
				case !ok:
					fmt.Fprintf(out, "(not found)\n")
				default:
					fmt.Fprintf(out, "%s\n", v)
				}
			}
		case "put":
			if t := lookup(1); t != nil {
				if err := t.Put(arg(2), []byte(arg(3))); err != nil {
					fmt.Fprintf(out, "error: %v\n", err)
				} else {
					fmt.Fprintln(out, "ok")
				}
			}
		case "del":
			if t := lookup(1); t != nil {
				if err := t.Delete(arg(2)); err != nil {
					fmt.Fprintf(out, "error: %v\n", err)
				} else {
					fmt.Fprintln(out, "ok")
				}
			}
		case "scan":
			if t := lookup(1); t != nil {
				rows, err := t.Scan(arg(2), arg(3), 100)
				if err != nil {
					fmt.Fprintf(out, "error: %v\n", err)
					continue
				}
				for _, kv := range rows {
					fmt.Fprintf(out, "%s = %s\n", kv.Key, kv.Value)
				}
				fmt.Fprintf(out, "(%d rows)\n", len(rows))
			}
		case "commit":
			if t := lookup(1); t != nil {
				err := t.Commit()
				switch {
				case err == nil:
					fmt.Fprintf(out, "committed (ts %d)\n", t.CommitTS())
				case core.IsConflict(err):
					fmt.Fprintln(out, "aborted: conflict")
				default:
					fmt.Fprintf(out, "error: %v\n", err)
				}
			}
		case "abort":
			if t := lookup(1); t != nil {
				if err := t.Abort(); err != nil {
					fmt.Fprintf(out, "error: %v\n", err)
				} else {
					fmt.Fprintln(out, "aborted")
				}
			}
		case "gc":
			n, err := client.GC()
			if err != nil {
				fmt.Fprintf(out, "error: %v\n", err)
			} else {
				fmt.Fprintf(out, "reclaimed %d versions\n", n)
			}
		case "asof":
			// asof <ts> <key>: time-travel read at snapshot ts.
			ts, err := strconv.ParseUint(arg(1), 10, 64)
			if err != nil {
				fmt.Fprintf(out, "error: bad timestamp %q\n", arg(1))
				continue
			}
			tt := client.BeginAt(ts)
			v, ok, err := tt.Get(arg(2))
			switch {
			case err != nil:
				fmt.Fprintf(out, "error: %v\n", err)
			case !ok:
				fmt.Fprintf(out, "(not found as of %d)\n", ts)
			default:
				fmt.Fprintf(out, "%s\n", v)
			}
			tt.Commit()
		case "stats":
			fmt.Fprintln(out, statsFn())
		default:
			fmt.Fprintf(out, "error: unknown command %q\n", cmd)
		}
	}
}
