package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// TestFigFlag: a -fig naming no figure this command prints used to
// print nothing and exit 0; now it fails naming the figures there are.
func TestFigFlag(t *testing.T) {
	for _, fig := range []int{0, 5, 6, 7, 8, 9, 10, 11, 12} {
		if err := checkFig(fig); err != nil {
			t.Errorf("-fig %d: %v", fig, err)
		}
	}
	for _, fig := range []int{3, 4, 13, -1, 99} {
		if err := checkFig(fig); err == nil || !strings.Contains(err.Error(), "want 0 for all") {
			t.Errorf("-fig %d: err = %v, want one naming the valid figures", fig, err)
		}
	}
}

// TestSizeFlags: a synthetic trace of no VMs or no containers used to
// print empty tables and exit 0, or fail with a bare "stats: empty
// sample"; now it fails naming the flag, before any output. A size flag
// of a trace no selected figure reads is not checked: that trace is
// not built (want "").
func TestSizeFlags(t *testing.T) {
	for _, c := range []struct {
		args []string
		want string
	}{
		{[]string{"-vms", "-3", "-fig", "6"}, "-vms -3"},
		{[]string{"-vms", "0", "-fig", "5"}, "-vms 0"},
		{[]string{"-vms", "0", "-fig", "7"}, "-vms 0"},
		{[]string{"-vms", "0", "-fig", "8"}, "-vms 0"},
		{[]string{"-containers", "0", "-fig", "9"}, "-containers 0"},
		{[]string{"-fig", "5", "-containers", "0"}, ""},
		{[]string{"-fig", "9", "-vms", "0"}, ""},
	} {
		t.Run(strings.Join(c.args, " "), func(t *testing.T) {
			var out bytes.Buffer
			err := run(c.args, &out)
			if c.want == "" {
				if err != nil || !strings.HasPrefix(out.String(), "== Figure") {
					t.Errorf("err = %v, output %q; want the figure", err, out.String())
				}
				return
			}
			if err == nil || !strings.Contains(err.Error(), c.want) {
				t.Errorf("err = %v, want one containing %q", err, c.want)
			}
			if out.Len() > 0 {
				t.Errorf("printed %q before failing", out.String())
			}
		})
	}
}

// TestCSVRowsWithoutSamples: a zero-lifetime VM row (an empty cpu_util)
// alone in its class, and in the top peak bucket by its NaN P95, used to
// fail Figures 6 and 8 with "stats: empty sample", and a container row
// with an empty membw series turned Figure 10 into NaN. Each figure now
// prints from the rows that have samples: one table, none for Fig 10.
func TestCSVRowsWithoutSamples(t *testing.T) {
	dir := t.TempDir()
	azure, alibaba := filepath.Join(dir, "azure.csv"), filepath.Join(dir, "alibaba.csv")
	for path, body := range map[string]string{
		azure: "id,class,cores,memory_mb,start,end,cpu_util\n" +
			"vm-1,interactive,2,4096,0,900,10;20;30\n" +
			"vm-2,delay-insensitive,2,4096,300,300,\n",
		alibaba: "id,cpu,mem,membw,disk,net\n" +
			"c-1,10;20,50;60,0.1;0.3,1;2,3;4\n" +
			"c-2,10;20,50;60,,1;2,3;4\n",
	} {
		if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	for _, fig := range figures {
		t.Run(strconv.Itoa(fig.n), func(t *testing.T) {
			var out bytes.Buffer
			if err := run([]string{"-azure", azure, "-alibaba", alibaba, "-fig", strconv.Itoa(fig.n)}, &out); err != nil {
				t.Fatal(err)
			}
			if strings.Contains(out.String(), "NaN") {
				t.Errorf("prints NaN:\n%s", out.String())
			}
			want := 1
			if fig.n == 10 {
				want = 0
			}
			if n := strings.Count(out.String(), "\n# "); n != want {
				t.Errorf("%d tables, want %d:\n%s", n, want, out.String())
			}
		})
	}
}

// TestSeriesMatchGolden regenerates each figure FIGURES.md lists for
// this command, on the default synthetic traces, and holds it to its
// golden.
func TestSeriesMatchGolden(t *testing.T) {
	for _, f := range figures {
		file := fmt.Sprintf("fig%02d.txt", f.n)
		t.Run(file, func(t *testing.T) {
			var out bytes.Buffer
			if err := run([]string{"-fig", strconv.Itoa(f.n)}, &out); err != nil {
				t.Fatal(err)
			}
			checkGolden(t, file, out.Bytes())
		})
	}
}
