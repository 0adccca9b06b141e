package pathdump_test

import (
	"os"
	"reflect"
	"slices"
	"strings"
	"testing"

	"pathdump"
	"pathdump/internal/agent"
	"pathdump/internal/alarms"
	"pathdump/internal/tib"
)

// TestKnobsPinned holds docs/knobs.txt to the configuration structs: its
// "field" lines must be, in order, every exported field of each struct
// below with its Go type. A knob added, renamed, retyped or removed shows
// up in the same diff as a line of that file. The file's "flag" lines are
// checked against the commands' -h output by CI.
func TestKnobsPinned(t *testing.T) {
	var want []string
	for _, c := range []struct {
		name string
		v    any
	}{
		{"tib.Config", tib.Config{}},
		{"agent.Config", agent.Config{}},
		{"alarms.Config", alarms.Config{}},
		{"pathdump.Config", pathdump.Config{}},
		{"pathdump.QueryConfig", pathdump.QueryConfig{}},
	} {
		typ := reflect.TypeOf(c.v)
		for i := 0; i < typ.NumField(); i++ {
			if f := typ.Field(i); f.IsExported() {
				want = append(want, "field "+c.name+"."+f.Name+" "+f.Type.String())
			}
		}
	}
	raw, err := os.ReadFile("docs/knobs.txt")
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, line := range strings.Split(string(raw), "\n") {
		if strings.HasPrefix(line, "field ") {
			got = append(got, line)
		}
	}
	if !slices.Equal(got, want) {
		t.Errorf("docs/knobs.txt's field lines are out of date; they should read:\n%s", strings.Join(want, "\n"))
	}
}
