package main

import (
	"testing"

	"cachedarrays/internal/clitest"
)

func TestMain(m *testing.M) { clitest.Main(m, main) }

func TestRejectsNonPositiveBatch(t *testing.T) {
	clitest.Rejects(t, "-batch must be at least 1", "-model", "mlp", "-batch", "0")
}
