package faas

import (
	"reflect"
	"sort"
	"strings"
	"testing"
)

// TestInvokeSurface pins Platform's exported Invoke* methods. Every one takes
// the tenant and goes through the one lookup; a new variant is a decision to
// make here, not something that regrows a call site at a time.
func TestInvokeSurface(t *testing.T) {
	want := []string{"InvokeAsyncFor", "InvokeFor", "InvokeForTraceIdem", "InvokeWithRetry"}
	var got []string
	typ := reflect.TypeOf((*Platform)(nil))
	for i := 0; i < typ.NumMethod(); i++ {
		if name := typ.Method(i).Name; strings.HasPrefix(name, "Invoke") {
			got = append(got, name)
		}
	}
	sort.Strings(got)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("exported Invoke* methods on Platform = %v, want exactly %v", got, want)
	}
	t.Logf("Platform exports %d methods", typ.NumMethod())
}
