// Command mrtest is the interactive Moira client (the original's test
// and administrative shell). It connects to a moirad and offers both a
// command line and the classic menu interface:
//
//	mrtest -addr 127.0.0.1:7760
//	> query get_machine *
//	> access add_user x 1 /bin/csh l f m 0 id STAFF
//	> help get_user_by_login
//	> noop
//
// A single query can also be run non-interactively:
//
//	mrtest -addr ... -q get_machine '*'
//
// The closed-loop load driver measures a server's sustainable
// throughput with calls pipelined over a few connections (or one call
// in flight, the serial baseline):
//
//	mrtest -addr ... -load -load-conns 4 -load-inflight 16 -load-duration 10s
//	mrtest -addr ... -load -load-conns 1 -load-inflight 1   # 1 call in flight
//	mrtest -addr ... -load -load-batch 64                   # batched mutations
package main

import (
	"bufio"
	"flag"
	"fmt"
	"log"
	"os"
	"strings"
	"time"

	"moira/internal/client"
	"moira/internal/mrerr"
	"moira/internal/util"
)

func main() {
	var (
		addr  = flag.String("addr", "127.0.0.1:7760", "moirad address")
		oneQ  = flag.String("q", "", "run one query (remaining args are its arguments) and exit")
		menus = flag.Bool("menu", false, "use the classic menu interface")

		load         = flag.Bool("load", false, "run the closed-loop load driver and exit")
		loadConns    = flag.Int("load-conns", 4, "connections for -load")
		loadInflight = flag.Int("load-inflight", 16, "concurrent calls in flight per connection for -load")
		loadDur      = flag.Duration("load-duration", 5*time.Second, "measurement window for -load")
		loadBatch    = flag.Int("load-batch", 0, "with -load: submit batches of this many mutations instead of queries")
		loadQuery    = flag.String("load-query", "get_value", "query for -load query mode (remaining args are its arguments)")
		loadJSON     = flag.String("load-json", "", "write -load results as JSON to this file (- = stdout)")
	)
	flag.Parse()

	if *load {
		args := flag.Args()
		if *loadQuery == "get_value" && len(args) == 0 {
			args = []string{"def_quota"}
		}
		err := runLoad(loadOptions{
			addr: *addr, conns: *loadConns, inflight: *loadInflight,
			duration: *loadDur, batch: *loadBatch,
			query: *loadQuery, args: args, jsonPath: *loadJSON,
		})
		if err != nil {
			log.Fatalf("mrtest: %v", err)
		}
		return
	}

	c, err := client.Dial(*addr)
	if err != nil {
		log.Fatalf("mrtest: %s", mrerr.ErrorMessage(mrerr.CodeOf(err)))
	}
	defer c.Disconnect()

	if *oneQ != "" {
		if err := runQuery(c, *oneQ, flag.Args()); err != nil {
			mrerr.ComErr("mrtest", mrerr.CodeOf(err), "%s", *oneQ)
			os.Exit(1)
		}
		return
	}

	if *menus {
		runMenus(c)
		return
	}
	repl(c)
}

func runQuery(c *client.Client, name string, args []string) error {
	n := 0
	err := c.Query(name, args, func(tuple []string) error {
		n++
		fmt.Println(strings.Join(tuple, " | "))
		return nil
	})
	if err != nil {
		return err
	}
	fmt.Printf("(%d tuples)\n", n)
	return nil
}

func repl(c *client.Client) {
	fmt.Println("mrtest: connected; commands: query|q, access, help, listq, noop, quit")
	sc := bufio.NewScanner(os.Stdin)
	for {
		fmt.Print("moira> ")
		if !sc.Scan() {
			return
		}
		fields := strings.Fields(sc.Text())
		if len(fields) == 0 {
			continue
		}
		switch fields[0] {
		case "quit", "exit":
			return
		case "noop":
			report(c.Noop())
		case "listq":
			report(runQuery(c, "_list_queries", nil))
		case "help":
			if len(fields) != 2 {
				fmt.Println("usage: help <query>")
				continue
			}
			report(runQuery(c, "_help", fields[1:]))
		case "query", "q":
			if len(fields) < 2 {
				fmt.Println("usage: query <name> [args...]")
				continue
			}
			report(runQuery(c, fields[1], fields[2:]))
		case "access":
			if len(fields) < 2 {
				fmt.Println("usage: access <name> [args...]")
				continue
			}
			report(c.Access(fields[1], fields[2:]))
		default:
			fmt.Printf("unknown command %q\n", fields[0])
		}
	}
}

func report(err error) {
	if err != nil {
		fmt.Printf("error: %s\n", mrerr.ErrorMessage(mrerr.CodeOf(err)))
	} else {
		fmt.Println("ok")
	}
}

// runMenus drives the classic menu package over the same client.
func runMenus(c *client.Client) {
	top := util.NewMenu("Moira Test Menu", os.Stdin, os.Stdout)
	top.Add("users", "user queries", func(m *util.Menu) error {
		login, ok := m.Prompt("login (wildcards ok): ")
		if !ok {
			return nil
		}
		return runQuery(c, "get_user_by_login", []string{login})
	})
	top.Add("machines", "machine queries", func(m *util.Menu) error {
		name, ok := m.Prompt("machine name: ")
		if !ok {
			return nil
		}
		return runQuery(c, "get_machine", []string{name})
	})
	top.Add("lists", "list queries", func(m *util.Menu) error {
		name, ok := m.Prompt("list name: ")
		if !ok {
			return nil
		}
		if err := runQuery(c, "get_list_info", []string{name}); err != nil {
			return err
		}
		return runQuery(c, "get_members_of_list", []string{name})
	})
	top.Add("stats", "table statistics", func(m *util.Menu) error {
		return runQuery(c, "get_all_table_stats", nil)
	})
	top.Add("noop", "ping the server", func(m *util.Menu) error {
		return c.Noop()
	})
	if err := top.Run(); err != nil {
		log.Fatal(err)
	}
}
