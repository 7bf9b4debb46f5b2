//go:build race

package lts_test

// raceBuild reports that the tests run under the race detector.
const raceBuild = true
