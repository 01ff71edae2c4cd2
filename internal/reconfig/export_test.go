package reconfig

// CyclicUnionRig exposes the cyclic-union rig to the package's external
// tests.
var CyclicUnionRig = cyclicUnionRig
