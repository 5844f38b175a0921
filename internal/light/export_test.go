package light

// DiffPropagation exposes the propagation differential (diffPropagation)
// to the external test package, which records lightfuzz programs.
var DiffPropagation = diffPropagation
