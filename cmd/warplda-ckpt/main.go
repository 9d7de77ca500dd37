// Command warplda-ckpt inspects the checkpoints a training run leaves
// behind (see docs/FORMATS.md for the WARPMANI and WARPSHRD layouts):
//
//	warplda-ckpt list   -dir ckpts           # retained checkpoints: iter, shards, bytes
//	warplda-ckpt verify -dir ckpts           # deep-verify the newest checkpoint
//	warplda-ckpt verify -dir ckpts -iter 40  # ... or a specific iteration
//	warplda-ckpt diff   -dir ckpts -a 20 -b 40
//	warplda-ckpt deltas -publish models/news    # inspect the WARPDLT chain
//
// list shows what ListCheckpoints would offer a resuming run: every
// complete checkpoint directory and its shard count (one for a sampler
// without sharded state). verify goes further than resume-time
// validation does by default: beyond the manifest's own CRC and shard
// presence/size checks, it streams every shard file end to end — magic,
// CRC32 trailer, the manifest's recorded CRC (catching a
// self-consistent shard swapped in from a different checkpoint), and
// the header's iteration / corpus fingerprint / position — without
// restoring any state, so a multi-GB checkpoint verifies in O(shard
// buffer) memory. diff compares two checkpoints' envelopes: sampler,
// config, progress, corpus identity, shard layout, and last traced log
// likelihood.
//
// deltas inspects a publish target's incremental-refresh chain: the
// WARPDLT files -publish-delta leaves next to the base snapshot. Every
// file is fully decoded (CRC, cell ordering, chain fingerprint) and the
// chain is checked end to end against the base model on disk — base
// fingerprint of generation 1, fingerprint linkage between successive
// generations, and filename/header generation agreement — so it answers
// the operational question "would a watching warplda-serve fold these?".
package main

import (
	"bufio"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"text/tabwriter"

	"warplda"
	"warplda/internal/fsio"
	"warplda/internal/train"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	var err error
	switch os.Args[1] {
	case "list":
		err = cmdList(os.Args[2:])
	case "verify":
		err = cmdVerify(os.Args[2:])
	case "diff":
		err = cmdDiff(os.Args[2:])
	case "deltas":
		err = cmdDeltas(os.Args[2:])
	case "-h", "-help", "--help", "help":
		usage()
		return
	default:
		fmt.Fprintf(os.Stderr, "warplda-ckpt: unknown subcommand %q\n", os.Args[1])
		usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "warplda-ckpt: %v\n", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintf(os.Stderr, `usage:
  warplda-ckpt list   -dir <checkpoint-dir>
  warplda-ckpt verify -dir <checkpoint-dir> [-iter N]
  warplda-ckpt diff   -dir <checkpoint-dir> -a N -b N
  warplda-ckpt deltas -publish <model-dir>/<name>
`)
}

func cmdList(args []string) error {
	fs := flag.NewFlagSet("list", flag.ExitOnError)
	dir := fs.String("dir", "", "checkpoint directory")
	fs.Parse(args)
	if *dir == "" {
		return fmt.Errorf("list: -dir is required")
	}
	entries, err := train.ListCheckpoints(*dir)
	if err != nil {
		return err
	}
	if len(entries) == 0 {
		fmt.Println("no checkpoints")
		return nil
	}
	tw := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "ITER\tSHARDS\tBYTES\tPATH")
	for _, e := range entries {
		shards := "?"
		if ck, err := train.ReadManifest(e.Path); err == nil {
			shards = fmt.Sprint(len(ck.ShardFiles))
		}
		fmt.Fprintf(tw, "%d\t%s\t%d\t%s\n", e.Iter, shards, checkpointBytes(e), e.Path)
	}
	return tw.Flush()
}

// checkpointBytes sums a checkpoint's on-disk size, manifest included;
// 0 if anything is unreadable.
func checkpointBytes(e train.CheckpointEntry) int64 {
	var total int64
	des, err := os.ReadDir(e.Path)
	if err != nil {
		return 0
	}
	for _, de := range des {
		if info, err := de.Info(); err == nil && info.Mode().IsRegular() {
			total += info.Size()
		}
	}
	return total
}

// pick resolves -iter onto one retained checkpoint (the newest when
// unset).
func pick(dir string, iter int) (train.CheckpointEntry, error) {
	entries, err := train.ListCheckpoints(dir)
	if err != nil {
		return train.CheckpointEntry{}, err
	}
	if len(entries) == 0 {
		return train.CheckpointEntry{}, fmt.Errorf("%s: no checkpoints", dir)
	}
	if iter < 0 {
		return entries[len(entries)-1], nil
	}
	for _, e := range entries {
		if e.Iter == iter {
			return e, nil
		}
	}
	return train.CheckpointEntry{}, fmt.Errorf("%s: no checkpoint at iteration %d", dir, iter)
}

func cmdVerify(args []string) error {
	fs := flag.NewFlagSet("verify", flag.ExitOnError)
	dir := fs.String("dir", "", "checkpoint directory")
	iter := fs.Int("iter", -1, "iteration to verify (default: newest)")
	fs.Parse(args)
	if *dir == "" {
		return fmt.Errorf("verify: -dir is required")
	}
	e, err := pick(*dir, *iter)
	if err != nil {
		return err
	}
	// Load restores no state: it CRC-checks the manifest and confirms
	// its shards' presence and sizes.
	ck, err := train.Load(e.Path)
	if err != nil {
		return err
	}
	printEnvelope(ck)
	for i := range ck.ShardFiles {
		if err := ck.VerifyShard(i); err != nil {
			return fmt.Errorf("shard %d (%s): %w", i, ck.ShardFiles[i], err)
		}
		fmt.Printf("shard %d (%s): %d bytes, crc %08x: OK\n",
			i, ck.ShardFiles[i], ck.ShardSizes[i], ck.ShardCRCs[i])
	}
	fmt.Printf("%s: OK\n", e.Path)
	return nil
}

func printEnvelope(ck *train.Checkpoint) {
	fmt.Printf("sampler      %s\n", ck.Sampler)
	fmt.Printf("iteration    %d\n", ck.Iter)
	fmt.Printf("elapsed      %s\n", ck.Elapsed)
	fmt.Printf("config       K=%d alpha=%g beta=%g mh=%d threads=%d seed=%d\n",
		ck.Cfg.K, ck.Cfg.Alpha, ck.Cfg.Beta, ck.Cfg.M, ck.Cfg.Threads, ck.Cfg.Seed)
	fmt.Printf("fingerprint  %08x\n", ck.Fingerprint)
	if n := len(ck.Trace.Points); n > 0 {
		p := ck.Trace.Points[n-1]
		fmt.Printf("last eval    iter=%d logLik=%.6e tokens/s=%.3e\n", p.Iter, p.LogLik, p.TokensSec)
	}
	fmt.Printf("shards       %d\n", len(ck.ShardFiles))
}

func cmdDeltas(args []string) error {
	fs := flag.NewFlagSet("deltas", flag.ExitOnError)
	spec := fs.String("publish", "", "publish target (<model-dir>/<name>) whose delta chain to inspect")
	fs.Parse(args)
	if *spec == "" {
		return fmt.Errorf("deltas: -publish is required")
	}
	basePath, name, err := train.PublishPath(*spec)
	if err != nil {
		return err
	}
	files, err := train.ListDeltaFiles(filepath.Dir(basePath), name)
	if err != nil {
		return err
	}

	// The chain anchor: the served base snapshot's count fingerprint.
	// A missing/unreadable base is reported but doesn't stop the per-file
	// decode — the deltas may still be individually well-formed.
	var prevFP uint64
	haveBase := false
	if f, err := os.Open(basePath); err == nil {
		m, rerr := warplda.ReadModel(bufio.NewReaderSize(f, 1<<20))
		f.Close()
		if rerr != nil {
			fmt.Printf("base %s: UNREADABLE (%v)\n", basePath, rerr)
		} else {
			prevFP = fsio.ModelFingerprint(m.V, m.Cfg.K, m.Cw, m.Ck)
			haveBase = true
			fmt.Printf("base %s: V=%d K=%d iterLogLik=%.6e fingerprint=%016x\n",
				basePath, m.V, m.Cfg.K, m.LogLik, prevFP)
		}
	} else {
		fmt.Printf("base %s: MISSING (%v)\n", basePath, err)
	}
	if len(files) == 0 {
		fmt.Println("no delta files")
		return nil
	}

	tw := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "GEN\tITER\tCELLS\tBYTES\tBASEFP\tNEWFP\tSTATUS")
	bad := 0
	expectGen := int64(1)
	for _, df := range files {
		status := "OK"
		d, size, rerr := readDeltaFile(df.Path)
		switch {
		case rerr != nil:
			status = fmt.Sprintf("CORRUPT: %v", rerr)
		case d.Gen != df.Gen:
			status = fmt.Sprintf("BAD: header generation %d under a .dlt.%d name", d.Gen, df.Gen)
		case df.Gen != expectGen:
			status = fmt.Sprintf("GAP: expected generation %d next", expectGen)
		case haveBase && d.BaseFP != prevFP:
			status = fmt.Sprintf("BROKEN LINK: base fingerprint %016x, chain stands at %016x", d.BaseFP, prevFP)
		}
		if status != "OK" {
			bad++
			if d == nil {
				fmt.Fprintf(tw, "%d\t-\t-\t-\t-\t-\t%s\n", df.Gen, status)
				continue
			}
		} else {
			prevFP = d.NewFP
			expectGen = df.Gen + 1
		}
		fmt.Fprintf(tw, "%d\t%d\t%d\t%d\t%016x\t%016x\t%s\n",
			df.Gen, d.Iter, len(d.Cells), size, d.BaseFP, d.NewFP, status)
	}
	if err := tw.Flush(); err != nil {
		return err
	}
	if bad > 0 {
		return fmt.Errorf("%d of %d delta files would be rejected by a serving registry", bad, len(files))
	}
	fmt.Printf("chain OK: %d deltas, head fingerprint %016x\n", len(files), prevFP)
	return nil
}

// readDeltaFile decodes one WARPDLT file, returning its size for the
// listing.
func readDeltaFile(path string) (*fsio.ModelDelta, int64, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, 0, err
	}
	defer f.Close()
	st, err := f.Stat()
	if err != nil {
		return nil, 0, err
	}
	d, err := fsio.ReadDelta(bufio.NewReaderSize(f, 1<<16))
	if err != nil {
		return nil, st.Size(), err
	}
	return d, st.Size(), nil
}

func cmdDiff(args []string) error {
	fs := flag.NewFlagSet("diff", flag.ExitOnError)
	dir := fs.String("dir", "", "checkpoint directory")
	a := fs.Int("a", -1, "first iteration")
	b := fs.Int("b", -1, "second iteration")
	fs.Parse(args)
	if *dir == "" || *a < 0 || *b < 0 {
		return fmt.Errorf("diff: -dir, -a, and -b are required")
	}
	ea, err := pick(*dir, *a)
	if err != nil {
		return err
	}
	eb, err := pick(*dir, *b)
	if err != nil {
		return err
	}
	cka, err := train.Load(ea.Path)
	if err != nil {
		return err
	}
	ckb, err := train.Load(eb.Path)
	if err != nil {
		return err
	}
	tw := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintf(tw, "FIELD\t@%d\t@%d\n", cka.Iter, ckb.Iter)
	diffRow(tw, "sampler", cka.Sampler, ckb.Sampler)
	diffRow(tw, "iteration", cka.Iter, ckb.Iter)
	diffRow(tw, "elapsed", cka.Elapsed, ckb.Elapsed)
	diffRow(tw, "K", cka.Cfg.K, ckb.Cfg.K)
	diffRow(tw, "alpha", cka.Cfg.Alpha, ckb.Cfg.Alpha)
	diffRow(tw, "beta", cka.Cfg.Beta, ckb.Cfg.Beta)
	diffRow(tw, "mh", cka.Cfg.M, ckb.Cfg.M)
	diffRow(tw, "threads", cka.Cfg.Threads, ckb.Cfg.Threads)
	diffRow(tw, "seed", cka.Cfg.Seed, ckb.Cfg.Seed)
	diffRow(tw, "fingerprint", fmt.Sprintf("%08x", cka.Fingerprint), fmt.Sprintf("%08x", ckb.Fingerprint))
	diffRow(tw, "shards", len(cka.ShardFiles), len(ckb.ShardFiles))
	diffRow(tw, "logLik", lastLL(cka), lastLL(ckb))
	return tw.Flush()
}

// diffRow prints one comparison row, flagging differing values.
func diffRow(w io.Writer, field string, a, b any) {
	marker := ""
	if !reflect.DeepEqual(a, b) {
		marker = "  <-- differs"
	}
	fmt.Fprintf(w, "%s\t%v\t%v%s\n", field, a, b, marker)
}

func lastLL(ck *train.Checkpoint) string {
	if n := len(ck.Trace.Points); n > 0 {
		return fmt.Sprintf("%.6e", ck.Trace.Points[n-1].LogLik)
	}
	return "-"
}
