// Package parallel is the worker pool the repository's data-parallel regions
// run on. Pool is a reusable fixed-size pool with barrier-style parallel-for
// regions (one worker executes inline, starting no goroutines): the
// document-sharded sweep mode of internal/core schedules whole shards on it,
// the model build runs topics across it, and batch inference runs documents.
//
// The paper's within-token parallel sampling procedures (PAPER.md §III-C4,
// Algorithms 2 and 3) also run on a Pool, but they live with the Fig. 8(f)
// reproduction in internal/experiments: split across one token's topic
// vector they lose to the serial scan at every measured topic count, so the
// engine parallelizes across documents only.
package parallel
