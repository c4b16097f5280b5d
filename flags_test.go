package repro_test

import (
	"os/exec"
	"path/filepath"
	"reflect"
	"regexp"
	"slices"
	"strings"
	"testing"

	"repro/blast"
	"repro/internal/core"
	"repro/internal/router"
	"repro/internal/server"
)

// daemonFlags is every flag each daemon accepts. Both share the process
// tail and the HTTP edge (server.RegisterFlags: -addr, -debug-addr,
// -drain-grace, -faultseed, -faultspec, -timeout, -trace); the rest are
// their own. Adding or removing a line here is a decision about the
// operator surface; TestDaemonFlagSets names the flags that moved.
var daemonFlags = map[string][]string{
	"mublastpd": {
		"addr", "compact-after", "concurrency", "db", "debug-addr", "drain-grace",
		"evalue", "faultseed", "faultspec", "global-residues", "global-sequences",
		"max-hits", "queue", "store", "threads", "timeout", "trace",
	},
	"mublastpr": {
		"addr", "debug-addr", "drain-grace", "faultseed", "faultspec",
		"probe-interval", "readmit-backoff", "readmit-backoff-max",
		"retry-backoff", "retry-budget", "timeout", "trace", "workers",
	},
}

// usageFlag matches one flag line of a flag package usage listing.
var usageFlag = regexp.MustCompile(`(?m)^  -([a-z0-9-]+)`)

// TestDaemonFlagSets builds both daemons and compares the flags their -h
// lists with daemonFlags, naming any flag added or removed.
func TestDaemonFlagSets(t *testing.T) {
	goTool, err := exec.LookPath("go")
	if err != nil {
		t.Skip("go tool not on PATH")
	}
	dir := t.TempDir()
	if out, err := exec.Command(goTool, "build", "-o", dir+"/", "./cmd/mublastpd", "./cmd/mublastpr").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	distinct := map[string]bool{}
	for daemon, want := range daemonFlags {
		out, err := exec.Command(filepath.Join(dir, daemon), "-h").CombinedOutput()
		if err != nil {
			t.Fatalf("%s -h: %v\n%s", daemon, err, out)
		}
		var got []string
		for _, m := range usageFlag.FindAllStringSubmatch(string(out), -1) {
			got = append(got, m[1])
		}
		var added, removed []string
		for _, f := range got {
			if !slices.Contains(want, f) {
				added = append(added, "-"+f)
			}
		}
		for _, f := range want {
			distinct[f] = true
			if !slices.Contains(got, f) {
				removed = append(removed, "-"+f)
			}
		}
		if len(added) > 0 || len(removed) > 0 {
			t.Errorf("%s flags moved: added [%s], removed [%s]; update daemonFlags if that is intended",
				daemon, strings.Join(added, " "), strings.Join(removed, " "))
		}
	}
	t.Logf("daemon flags: mublastpd %d, mublastpr %d, %d distinct",
		len(daemonFlags["mublastpd"]), len(daemonFlags["mublastpr"]), len(distinct))
}

// configFields is every exported field of the five types a caller configures
// the library and the serving tiers with. The search rules (T, A, X-drops,
// gap penalties) and the serving bounds no caller needs to move (deadline
// cap, batch cap, degraded-mode cap, Retry-After, ingest cap, the remote
// deadline margin) are constants, not fields; adding one back here is a
// decision about the API, as adding a flag to daemonFlags is one about the
// operator surface.
var configFields = map[reflect.Type][]string{
	reflect.TypeFor[blast.Params](): {
		"Matrix", "EValueCutoff", "MaxResults", "BlockResidues", "Threads",
		"SplitLongerThan", "SplitOverlap", "GlobalDBResidues", "GlobalDBSequences",
	},
	reflect.TypeFor[server.Config](): {
		"Queue", "Concurrency", "DefaultTimeout", "DegradeAfter", "Store",
		"CompactAfter", "Registry", "Tracer", "Logf",
	},
	reflect.TypeFor[router.FrontendConfig](): {
		"DefaultTimeout", "Registry", "Generation", "Tracer", "Logf",
	},
	reflect.TypeFor[router.RemoteOptions](): {},
	reflect.TypeFor[router.ResilienceConfig](): {
		"ProbeInterval", "ProbeTimeout", "ReadmitBackoff", "ReadmitBackoffMax",
		"RetryBudget", "RetryBackoff",
	},
}

// TestConfigSurface lists the exported fields of each configuration type by
// reflection and compares them with configFields, naming any field added or
// removed.
func TestConfigSurface(t *testing.T) {
	total := 0
	for typ, want := range configFields {
		var got []string
		for i := range typ.NumField() {
			if f := typ.Field(i); f.IsExported() {
				got = append(got, f.Name)
			}
		}
		total += len(got)
		var added, removed []string
		for _, f := range got {
			if !slices.Contains(want, f) {
				added = append(added, f)
			}
		}
		for _, f := range want {
			if !slices.Contains(got, f) {
				removed = append(removed, f)
			}
		}
		if len(added) > 0 || len(removed) > 0 {
			t.Errorf("%s fields moved: added [%s], removed [%s]; update configFields if that is intended",
				typ, strings.Join(added, " "), strings.Join(removed, " "))
		}
	}
	t.Logf("settable configuration fields: %d across %d types", total, len(configFields))
}

// searchMethods is every exported method whose name begins with "Search" of
// the engine and of the library's database. Each search runs on the engine's
// one search loop, the (block × query) task grid of
// core.Engine.SearchBatchCtx; a second entry point, above all a second search
// loop, is a decision about the API, as a new configuration field is.
var searchMethods = map[reflect.Type][]string{
	reflect.TypeFor[*core.Engine](): {"SearchBatch", "SearchBatchCtx"},
	reflect.TypeFor[*blast.Database](): {
		"Search", "SearchBatch", "SearchBatchCtx", "SearchSettings", "SearchShardBatchCtx",
	},
}

// TestSearchSurface lists the exported Search* methods of each type by
// reflection and compares them with searchMethods.
func TestSearchSurface(t *testing.T) {
	for typ, want := range searchMethods {
		var got []string
		for i := range typ.NumMethod() {
			if name := typ.Method(i).Name; strings.HasPrefix(name, "Search") {
				got = append(got, name)
			}
		}
		if !slices.Equal(got, want) {
			t.Errorf("%s search methods [%s], want [%s]; update searchMethods if that is intended",
				typ, strings.Join(got, " "), strings.Join(want, " "))
		}
	}
}
