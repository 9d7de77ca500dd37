package main

import (
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

func TestValidateFlags(t *testing.T) {
	ok := trainFlags{corpusPath: "c.uci", algo: "warplda", topics: 100, m: 2, iters: 10, threads: 1, checkpointKeep: 1}
	if err := validateFlags(ok); err != nil {
		t.Fatalf("valid flags rejected: %v", err)
	}

	cases := []struct {
		name    string
		mutate  func(*trainFlags)
		wantSub string
	}{
		{"missing corpus", func(f *trainFlags) { f.corpusPath = "" }, "-corpus"},
		{"zero iters", func(f *trainFlags) { f.iters = 0 }, "-iters"},
		{"negative iters", func(f *trainFlags) { f.iters = -5 }, "-iters"},
		{"zero topics", func(f *trainFlags) { f.topics = 0 }, "-topics"},
		{"negative topics", func(f *trainFlags) { f.topics = -1 }, "-topics"},
		{"negative m", func(f *trainFlags) { f.m = -1 }, "-m"},
		{"zero threads", func(f *trainFlags) { f.threads = 0 }, "-threads"},
		{"negative budget", func(f *trainFlags) { f.budget = -time.Second }, "-budget"},
		{"zero checkpoint-keep", func(f *trainFlags) { f.checkpointKeep = 0 }, "-checkpoint-keep"},
		{"negative checkpoint-keep", func(f *trainFlags) { f.checkpointKeep = -3 }, "-checkpoint-keep"},
		{"unknown algo", func(f *trainFlags) { f.algo = "vibes" }, "-algo"},
		{"publish without name", func(f *trainFlags) { f.publish = "justaname" }, "publish"},
		{"publish with .bin", func(f *trainFlags) { f.publish = "models/news.bin" }, ".bin"},
		{"publish-delta without publish", func(f *trainFlags) { f.publishDelta = true; f.deltaMaxChain = 16 }, "-publish-delta"},
		{"zero delta-max-chain", func(f *trainFlags) {
			f.publish = "models/news"
			f.publishDelta = true
			f.deltaMaxChain = 0
		}, "-delta-max-chain"},
		{"negative max-resident-mb", func(f *trainFlags) { f.stream = true; f.maxResidentMB = -1 }, "-max-resident-mb"},
		{"corpus-cache without stream", func(f *trainFlags) { f.corpusCache = "cache/" }, "-stream"},
		{"max-resident-mb without stream", func(f *trainFlags) { f.maxResidentMB = 128 }, "-stream"},
		{"listen without distributed", func(f *trainFlags) { f.listen = ":7077"; f.checkpointDir = "ck" }, "-listen"},
		{"listen without checkpoint-dir", func(f *trainFlags) { f.listen = ":7077"; f.algo = "distributed" }, "-listen"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			f := ok
			tc.mutate(&f)
			err := validateFlags(f)
			if err == nil {
				t.Fatalf("%+v accepted", f)
			}
			if !strings.Contains(err.Error(), tc.wantSub) {
				t.Fatalf("error %q does not mention %q", err, tc.wantSub)
			}
		})
	}

	// The distributed sampler takes workers via -threads too.
	dist := ok
	dist.algo = "distributed"
	dist.threads = 4
	if err := validateFlags(dist); err != nil {
		t.Fatalf("distributed rejected: %v", err)
	}
	// The live cluster: distributed, with its recovery log.
	live := dist
	live.listen = ":7077"
	live.checkpointDir = "ck"
	if err := validateFlags(live); err != nil {
		t.Fatalf("-listen with -algo distributed and -checkpoint-dir rejected: %v", err)
	}
	// m = 0 is legal for the non-MH samplers.
	cgs := ok
	cgs.algo = "cgs"
	cgs.m = 0
	if err := validateFlags(cgs); err != nil {
		t.Fatalf("cgs with m=0 rejected: %v", err)
	}
	// The full streaming flag set is legal together.
	stream := ok
	stream.stream = true
	stream.corpusCache = "cache/"
	stream.maxResidentMB = 256
	if err := validateFlags(stream); err != nil {
		t.Fatalf("stream flags rejected: %v", err)
	}
}

func TestOpenOrBuildCache(t *testing.T) {
	dir := t.TempDir()
	src := filepath.Join(dir, "c.uci")
	if err := os.WriteFile(src, []byte("2\n3\n3\n1 1 2\n1 3 1\n2 2 1\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	cacheDir := filepath.Join(dir, "cache")

	mc, err := openOrBuildCache(src, cacheDir, 1)
	if err != nil {
		t.Fatal(err)
	}
	if mc.NumDocs() != 2 || mc.NumWords() != 3 || mc.NumTokens() != 4 {
		t.Fatalf("mapped corpus D=%d V=%d T=%d, want 2/3/4", mc.NumDocs(), mc.NumWords(), mc.NumTokens())
	}
	fp := mc.CorpusFingerprint()
	cachePath := mc.Path()
	mc.Close()

	// Second call must reuse the existing cache (same fingerprint).
	mc2, err := openOrBuildCache(src, cacheDir, 0)
	if err != nil {
		t.Fatal(err)
	}
	if mc2.Path() != cachePath || mc2.CorpusFingerprint() != fp {
		t.Fatalf("reuse opened %s fp %08x, want %s fp %08x", mc2.Path(), mc2.CorpusFingerprint(), cachePath, fp)
	}
	mc2.Close()

	// A torn cache is rebuilt from the source, not trusted.
	data, err := os.ReadFile(cachePath)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(cachePath, data[:len(data)-3], 0o644); err != nil {
		t.Fatal(err)
	}
	mc3, err := openOrBuildCache(src, cacheDir, 0)
	if err != nil {
		t.Fatal(err)
	}
	if mc3.CorpusFingerprint() != fp {
		t.Fatalf("rebuilt cache fingerprint %08x, want %08x", mc3.CorpusFingerprint(), fp)
	}
	mc3.Close()

	// A source regenerated after the cache was built must trigger a
	// rebuild, not a silent reuse of the stale cache.
	if err := os.WriteFile(src, []byte("1\n2\n1\n1 2 3\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	future := time.Now().Add(2 * time.Second)
	if err := os.Chtimes(src, future, future); err != nil {
		t.Fatal(err)
	}
	mc4, err := openOrBuildCache(src, cacheDir, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer mc4.Close()
	if mc4.CorpusFingerprint() == fp {
		t.Fatal("stale cache reused after the source changed")
	}
	if mc4.NumDocs() != 1 || mc4.NumTokens() != 3 {
		t.Fatalf("rebuilt corpus D=%d T=%d, want 1/3", mc4.NumDocs(), mc4.NumTokens())
	}
}

// TestResumeCommandRepeatsFlags: every flag of the run reappears in the
// resume hint with the value it was given, so the resumed run writes
// the same outputs (a hint that dropped -publish-keep made the resumed
// run keep every published version). -resume is replaced by the
// checkpoint, and -budget is dropped after a budget stop.
func TestResumeCommandRepeatsFlags(t *testing.T) {
	given := map[string][]string{
		"corpus":           {"-corpus", "c.uci"},
		"vocab":            {"-vocab", "v.txt"},
		"algo":             {"-algo", "distributed"},
		"topics":           {"-topics", "8"},
		"m":                {"-m", "1"},
		"iters":            {"-iters", "77"},
		"eval-every":       {"-eval-every", "3"},
		"threads":          {"-threads", "2"},
		"seed":             {"-seed", "9"},
		"top-words":        {"-top-words", "4"},
		"print-topics":     {"-print-topics", "3"},
		"save":             {"-save", "model.bin"},
		"checkpoint-dir":   {"-checkpoint-dir", "ck"},
		"checkpoint-every": {"-checkpoint-every", "4"},
		"checkpoint-keep":  {"-checkpoint-keep", "5"},
		"publish":          {"-publish", "models/news"},
		"publish-keep":     {"-publish-keep", "2"},
		"publish-delta":    {"-publish-delta"},
		"delta-max-chain":  {"-delta-max-chain", "6"},
		"budget":           {"-budget", "1h30m0s"},
		"stream":           {"-stream"},
		"corpus-cache":     {"-corpus-cache", "cache"},
		"max-resident-mb":  {"-max-resident-mb", "9"},
		"listen":           {"-listen", ":7077"},
	}
	fs := flag.NewFlagSet("warplda-train", flag.ContinueOnError)
	defineFlags(fs)
	fs.VisitAll(func(fl *flag.Flag) {
		if fl.Name == "resume" {
			return
		}
		args, ok := given[fl.Name]
		if !ok {
			t.Errorf("flag -%s has no row here: give it a value and check that the resume hint repeats it", fl.Name)
			return
		}
		t.Run(fl.Name, func(t *testing.T) {
			fs := flag.NewFlagSet("warplda-train", flag.ContinueOnError)
			defineFlags(fs)
			if err := fs.Parse(append(args, "-resume", "old")); err != nil {
				t.Fatal(err)
			}
			hint := resumeCommand(fs, false, "ck/checkpoint-00000040")
			want := " " + strings.Join(args, " ") + " "
			if !strings.Contains(hint+" ", want) {
				t.Fatalf("hint %q does not repeat %q", hint, want)
			}
			if !strings.HasSuffix(hint, " -resume ck/checkpoint-00000040") || strings.Contains(hint, "old") {
				t.Fatalf("hint %q does not resume from the new checkpoint alone", hint)
			}
		})
	})

	fs = flag.NewFlagSet("warplda-train", flag.ContinueOnError)
	defineFlags(fs)
	if err := fs.Parse([]string{"-corpus", "c.uci", "-budget", "2h0m0s"}); err != nil {
		t.Fatal(err)
	}
	if hint := resumeCommand(fs, true, "ck"); strings.Contains(hint, "-budget") {
		t.Fatalf("hint after a budget stop repeats the budget: %q", hint)
	}
	if hint := resumeCommand(fs, false, "ck"); !strings.Contains(hint, "-budget 2h0m0s") {
		t.Fatalf("hint after a signal drops the budget: %q", hint)
	}
}
