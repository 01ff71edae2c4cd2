package topo

// NetSize exposes netSize, the size NewNet reserves, to the tests.
var NetSize = netSize
