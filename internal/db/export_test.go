package db

// PopulateForTest exposes populate to the package's external tests.
var PopulateForTest = populate
