package main

import (
	"testing"

	"cachedarrays/internal/clitest"
)

func TestMain(m *testing.M) { clitest.Main(m, main) }

func TestRejectsNegativeJobs(t *testing.T) {
	clitest.Rejects(t, "-jobs must not be negative", "-jobs", "-1")
}
