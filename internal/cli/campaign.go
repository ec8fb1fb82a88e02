package cli

import (
	"fmt"
	"os"

	"sparsehamming/internal/exp"
)

// Campaign bundles the CLI-side experiment-campaign plumbing shared
// by shrun, shdse, shpredict, and shserved: opening the on-disk cache
// with a corruption warning, hooking the stderr report line, and
// persisting the cache with hit statistics on exit — on error exits
// too, so a failed sweep keeps every result it already computed.
type Campaign struct {
	prog  string
	cache *exp.Cache
}

// StartCampaign wires a runner for CLI use: attaches the cache at
// cachePath (empty for none), an optional per-job progress log, and
// the campaign report line, all prefixed with the program name on
// stderr.
func StartCampaign(prog, cachePath string, runner *exp.Runner, progress bool) *Campaign {
	c := &Campaign{prog: prog}
	if cachePath != "" {
		cache, err := exp.OpenCache(cachePath)
		if err != nil {
			fmt.Fprintf(os.Stderr, "%s: warning: %v\n", prog, err)
		}
		c.cache = cache
		runner.Cache = cache
	}
	if progress {
		runner.Progress = exp.LogProgress(os.Stderr)
	}
	runner.OnReport = func(rep exp.Report) {
		fmt.Fprintf(os.Stderr, "%s: campaign: %s\n", prog, rep)
	}
	return c
}

// Close prints cache statistics and persists the cache. Call it
// before every exit path, success and failure alike (os.Exit skips
// defers, so the fatal paths must call it explicitly).
func (c *Campaign) Close() {
	if c.cache == nil {
		return
	}
	hits, misses := c.cache.Stats()
	fmt.Fprintf(os.Stderr, "%s: cache: %d hits, %d misses, %d entries\n",
		c.prog, hits, misses, c.cache.Len())
	if err := c.cache.Save(); err != nil {
		fmt.Fprintf(os.Stderr, "%s: warning: %v\n", c.prog, err)
	}
}
