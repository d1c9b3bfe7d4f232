package bounds

// CheckUpdaterOracle exposes the updater oracle harness to the external
// test package, which can build the EMN model (package emn depends on
// bounds, so the in-package tests cannot import it).
var CheckUpdaterOracle = checkUpdaterOracle
