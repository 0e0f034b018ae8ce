package rel

// The differential generator, for the engine-level tests of package
// rel_test: they run its programs through core.Engine, which imports
// this package and so cannot be imported by its internal tests.
var (
	DiffEnv              = diffEnv
	DiffSchemaPreserving = diffSchemaPreserving
	DiffSelectStmt       = diffSelectStmt
)
