package main

import (
	"strings"
	"testing"
)

// TestParseFlags runs the flag-to-config step over flag sets: each mode
// accepts its own flags, and a flag the chosen mode would ignore is refused
// with a message naming it.
func TestParseFlags(t *testing.T) {
	for _, tc := range []struct {
		args []string
		// refused is a substring of the expected error; empty means the
		// flags are accepted.
		refused string
	}{
		{args: nil},
		{args: []string{"-engine", "si", "-max-rows", "64", "-coalesce", "8"}},
		{args: []string{"-wal", "w.log", "-fsync=false", "-checkpoint-interval", "1s"}},
		{args: []string{"-partitions", "2", "-partition-id", "1", "-router", "range", "-wal", "p1.log"}},
		{args: []string{"-group", "D", "-node-id", "2", "-lease-ms", "500", "-bootstrap", "-advertise", "a:1", "-checkpoint-interval", "1s", "-fsync=false"}},

		// A group member does not apply a partition role: it would issue
		// timestamps and vote on rows another partition owns.
		{args: []string{"-group", "D", "-bootstrap", "-partitions", "2", "-partition-id", "1"}, refused: "-group with -partitions 2"},
		{args: []string{"-group", "D", "-wal", "w.log"}, refused: "-group with -wal"},
		{args: []string{"-node-id", "1"}, refused: "-node-id needs -group"},
		{args: []string{"-lease-ms", "500"}, refused: "-lease-ms needs -group"},
		{args: []string{"-bootstrap"}, refused: "-bootstrap needs -group"},
		{args: []string{"-advertise", "a:1"}, refused: "-advertise needs -group"},
		{args: []string{"-fsync=false"}, refused: "-fsync needs -wal"},
		{args: []string{"-checkpoint-interval", "1s"}, refused: "-checkpoint-interval needs -wal"},
		{args: []string{"-partition-id", "0"}, refused: "-partition-id needs -partitions > 1"},
		{args: []string{"-router", "range"}, refused: "-router needs -partitions > 1"},
		{args: []string{"-partitions", "2", "-partition-id", "2"}, refused: "-partition-id 2 outside [0, 2)"},
		{args: []string{"-partitions", "2", "-router", "bogus"}, refused: "unknown router spec"},
		{args: []string{"-engine", "ssi"}, refused: `unknown engine "ssi"`},
		{args: []string{"-wal", "w.log", "extra"}, refused: `unexpected argument "extra"`},
		// Every refusal is reported, not only the first.
		{args: []string{"-node-id", "1", "-bootstrap"}, refused: "-node-id needs -group\n-bootstrap needs -group"},
	} {
		t.Run(strings.Join(tc.args, " "), func(t *testing.T) {
			_, err := parseFlags(tc.args)
			switch {
			case tc.refused == "" && err != nil:
				t.Fatalf("refused: %v", err)
			case tc.refused != "" && err == nil:
				t.Fatalf("accepted, want an error containing %q", tc.refused)
			case tc.refused != "" && !strings.Contains(err.Error(), tc.refused):
				t.Fatalf("error %q does not contain %q", err, tc.refused)
			}
		})
	}
}

// TestParseFlagsModes checks what each mode's config carries.
func TestParseFlagsModes(t *testing.T) {
	cfg, err := parseFlags([]string{"-partitions", "4", "-partition-id", "3", "-wal", "p3.log"})
	if err != nil {
		t.Fatal(err)
	}
	if cfg.role == nil || cfg.role.id != 3 || cfg.role.router.Partitions() != 4 || cfg.group != nil {
		t.Fatalf("partition mode: role %+v, group %+v", cfg.role, cfg.group)
	}
	cfg, err = parseFlags([]string{"-group", "D", "-node-id", "1", "-lease-ms", "250"})
	if err != nil {
		t.Fatal(err)
	}
	if cfg.group == nil || cfg.group.dir != "D" || cfg.group.nodeID != 1 || cfg.group.lease.Milliseconds() != 250 || cfg.role != nil {
		t.Fatalf("group mode: group %+v, role %+v", cfg.group, cfg.role)
	}
}
