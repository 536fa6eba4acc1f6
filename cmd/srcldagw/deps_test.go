package main

import (
	"testing"

	"sourcelda/cmd/internal/flagdocs"
)

// srcldagwDeps is every in-repo package srcldagw links, itself included. The
// gateway proxies bytes and links no model code; a package joining the list
// is a deliberate choice, not a side effect of a convenience import.
var srcldagwDeps = []string{
	"sourcelda/cmd/srcldagw",
	"sourcelda/internal/gateway",
	"sourcelda/internal/obs",
}

// TestDeps pins the in-repo package set srcldagw links against srcldagwDeps.
func TestDeps(t *testing.T) {
	flagdocs.CheckDeps(t, "sourcelda/cmd/srcldagw", srcldagwDeps)
}
