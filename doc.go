// Package repro is a from-scratch Go reproduction of "A Critique of
// Snapshot Isolation" (Gómez Ferro & Yabandeh, EuroSys 2012): lock-free
// write-snapshot isolation — serializable transactions for multi-version
// key-value stores at snapshot-isolation cost.
//
// The user-facing API lives in internal/core; see README.md for the
// architecture, DESIGN.md for the system inventory, and benchmark/ for the
// measured canonical transaction.
package repro
