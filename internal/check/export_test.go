package check

// The reference checks are exported to the external test package,
// whose fuzz target draws its base ring from internal/core (which
// imports this package, so only check_test may import it).
var (
	RefRing = refRing
	RefPath = refPath
)
