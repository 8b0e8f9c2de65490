package main

import (
	"reflect"
	"testing"
)

func TestTableNamesScopedToReference(t *testing.T) {
	doc := "# x\n| `not_a_metric` | y |\n" +
		"### Metrics reference\n\n| Metric | Type | Description |\n|---|---|---|\n" +
		"| `legalchain_a_total` | counter | A. |\n| `legalchain_b_seconds` | histogram | B. |\n" +
		"### Next section\n| `legalchain_c` | gauge | outside the table |\n"
	names, found := tableNames(doc)
	if !found {
		t.Fatal("heading not found")
	}
	if want := []string{"legalchain_a_total", "legalchain_b_seconds"}; !reflect.DeepEqual(names, want) {
		t.Fatalf("names = %v, want %v", names, want)
	}
	if _, found := tableNames("# README\nno table\n"); found {
		t.Fatal("found a heading that is not there")
	}
}
